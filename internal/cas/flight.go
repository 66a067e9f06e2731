package cas

import (
	"context"
	"math"
	"sync"
)

// Flight coalesces concurrent work on the same content address: while one
// goroutine computes a key, later arrivals for that key block and share the
// single result instead of computing again. Hand-rolled single-flight — the
// stdlib has no exported equivalent and the toolkit takes no external
// dependencies. The call table is sharded by the first byte of the key like
// the LRU, so flights on distinct keys never touch the same mutex.
type Flight[V any] struct {
	mask   byte
	shards []flightShard[V]
}

// flightShard is one independently locked slice of the call table, padded
// apart so neighbouring shard mutexes do not share a cache line.
type flightShard[V any] struct {
	mu    sync.Mutex
	calls map[Key]*flightCall[V]
	_     [88]byte
}

// flightCall is one in-progress computation.
type flightCall[V any] struct {
	done    chan struct{}
	waiters int
	val     V
	err     error
}

// NewFlight creates an empty group with the given shard count (normalized
// to a power of two in [1, 256]; a call table has no capacity to divide).
func NewFlight[V any](shards int) *Flight[V] {
	n := shardCount(math.MaxInt, shards)
	g := &Flight[V]{mask: byte(n - 1), shards: make([]flightShard[V], n)}
	for i := range g.shards {
		g.shards[i].calls = make(map[Key]*flightCall[V])
	}
	return g
}

// shard maps a key to its home shard.
func (g *Flight[V]) shard(k Key) *flightShard[V] {
	return &g.shards[k[0]&g.mask]
}

// Do runs fn for the key, unless a call for the same key is already in
// flight, in which case it waits for that call and shares its result.
// shared reports whether this caller rode an existing flight. Errors are
// shared too: N identical failing requests cost one failed computation.
//
// ctx covers only the wait: a waiter whose client hangs up returns
// ctx.Err() immediately instead of staying pinned to its goroutine for the
// leader's full budget. The flight itself keeps running — the leader is
// detached from any one client, so the survivors (and any cache the leader
// fills) still get the result.
func (g *Flight[V]) Do(ctx context.Context, k Key, fn func() (V, error)) (v V, err error, shared bool) {
	sh := g.shard(k)
	sh.mu.Lock()
	if c, ok := sh.calls[k]; ok {
		c.waiters++
		sh.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			sh.mu.Lock()
			c.waiters--
			sh.mu.Unlock()
			var zero V
			return zero, ctx.Err(), true
		}
	}
	c := &flightCall[V]{done: make(chan struct{})}
	sh.calls[k] = c
	sh.mu.Unlock()

	c.val, c.err = fn()
	sh.mu.Lock()
	delete(sh.calls, k)
	sh.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}

// Waiting reports how many callers are parked on the key's in-flight call
// and whether a call for the key is in flight at all. Tests use it to
// sequence coalescing races.
func (g *Flight[V]) Waiting(k Key) (waiters int, inFlight bool) {
	sh := g.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c, ok := sh.calls[k]; ok {
		return c.waiters, true
	}
	return 0, false
}
