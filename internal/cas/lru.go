package cas

import "sync"

// LRU is a fixed-total-capacity LRU keyed by content address and sharded
// by the first byte of the key. Each shard owns its mutex, its slice of the
// total capacity, and strict LRU order within the shard; Len and Flush
// iterate shards. Each shard keeps its recency order on an intrusive ring,
// so an insert costs exactly one allocation (the entry) and a hit none.
// All methods are safe for concurrent use.
type LRU[V any] struct {
	mask   byte
	shards []lruShard[V]
}

// lruShard is one independently locked slice of the cache. The trailing
// pad keeps neighbouring shards' mutexes off the same cache line.
type lruShard[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[Key]*entry[V]
	// head.next is most recently used; head.prev least. The sentinel makes
	// every link operation branch-free.
	head entry[V]
	_    [40]byte
}

// entry is one cache slot on its shard's ring.
type entry[V any] struct {
	key        Key
	val        V
	prev, next *entry[V]
}

// NewLRU creates a cache holding up to capacity values in total (minimum
// 1), split across shardCount(capacity, shards) shards.
func NewLRU[V any](capacity, shards int) *LRU[V] {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount(capacity, shards)
	c := &LRU[V]{mask: byte(n - 1), shards: make([]lruShard[V], n)}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = base
		if i < rem {
			sh.cap++
		}
		sh.head.prev = &sh.head
		sh.head.next = &sh.head
		sh.items = make(map[Key]*entry[V])
	}
	return c
}

// shard maps a key to its home shard by its first byte.
func (c *LRU[V]) shard(k Key) *lruShard[V] {
	return &c.shards[k[0]&c.mask]
}

// unlink removes e from its ring.
func unlink[V any](e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront inserts e as most recently used.
func (sh *lruShard[V]) pushFront(e *entry[V]) {
	e.prev = &sh.head
	e.next = sh.head.next
	e.next.prev = e
	sh.head.next = e
}

// Get returns the cached value and marks it most recently used in its
// shard.
func (c *LRU[V]) Get(k Key) (V, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	e, ok := sh.items[k]
	if !ok {
		sh.mu.Unlock()
		var zero V
		return zero, false
	}
	unlink(e)
	sh.pushFront(e)
	v := e.val
	sh.mu.Unlock()
	return v, true
}

// Put stores a value, evicting the shard's least recently used entry when
// the shard is full, and returns how many entries it evicted. Storing an
// existing key refreshes its recency and keeps the incumbent value: equal
// keys address equal values by construction, so there is nothing to
// overwrite (and concurrent fillers racing on one key converge on a single
// shared instance).
func (c *LRU[V]) Put(k Key, v V) (evicted int) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[k]; ok {
		unlink(e)
		sh.pushFront(e)
		return 0
	}
	e := &entry[V]{key: k, val: v}
	sh.items[k] = e
	sh.pushFront(e)
	for len(sh.items) > sh.cap {
		last := sh.head.prev
		unlink(last)
		delete(sh.items, last.key)
		evicted++
	}
	return evicted
}

// Len reports the number of cached values across all shards.
func (c *LRU[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Capacity reports the configured total capacity across shards.
func (c *LRU[V]) Capacity() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// Shards reports the effective shard count after normalization.
func (c *LRU[V]) Shards() int { return len(c.shards) }

// Flush empties every shard.
func (c *LRU[V]) Flush() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.head.prev = &sh.head
		sh.head.next = &sh.head
		clear(sh.items)
		sh.mu.Unlock()
	}
}
