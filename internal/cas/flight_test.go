package cas

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// parked reports how many callers wait on the key's in-flight call.
func parked[V any](g *Flight[V], k Key) int {
	n, _ := g.Waiting(k)
	return n
}

func TestFlightCoalesces(t *testing.T) {
	g := NewFlight[string](16)
	key := keyOf("k")
	var evals int
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	leaderDone := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, shared := g.Do(context.Background(), key, func() (string, error) {
			evals++
			close(started)
			<-release
			return "result", nil
		})
		if err != nil || shared {
			t.Errorf("leader: err=%v shared=%v", err, shared)
		}
		leaderDone <- v
	}()
	<-started
	const followers = 16
	results := make(chan string, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do(context.Background(), key, func() (string, error) {
				t.Error("follower ran the computation")
				return "", nil
			})
			if err != nil || !shared {
				t.Errorf("follower: err=%v shared=%v", err, shared)
			}
			results <- v
		}()
	}
	// Hold the leader until every follower has parked on the in-flight call;
	// releasing earlier would let stragglers miss the flight entirely.
	for parked(g, key) < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	want := <-leaderDone
	for i := 0; i < followers; i++ {
		if got := <-results; got != want {
			t.Errorf("follower result %q != leader %q", got, want)
		}
	}
	if evals != 1 {
		t.Errorf("evaluations = %d, want 1", evals)
	}
	if n, inFlight := g.Waiting(key); n != 0 || inFlight {
		t.Errorf("after completion: waiting=%d inFlight=%v, want 0, false", n, inFlight)
	}
}

func TestFlightSharesErrors(t *testing.T) {
	g := NewFlight[string](16)
	key := keyOf("err")
	wantErr := fmt.Errorf("boom")
	_, err, _ := g.Do(context.Background(), key, func() (string, error) { return "", wantErr })
	if err != wantErr {
		t.Errorf("err = %v", err)
	}
	// The failed call must not wedge the key: a retry runs fresh.
	v, err, shared := g.Do(context.Background(), key, func() (string, error) { return "ok", nil })
	if err != nil || shared || v != "ok" {
		t.Errorf("retry after error: v=%q err=%v shared=%v", v, err, shared)
	}
}

// TestFlightWaiterCancellation pins the waiter-side contract: a waiter
// whose context is cancelled mid-flight returns promptly with the context
// error, while the leader's computation and result are unaffected.
func TestFlightWaiterCancellation(t *testing.T) {
	g := NewFlight[string](16)
	key := keyOf("cancel")
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, shared := g.Do(context.Background(), key, func() (string, error) {
			close(started)
			<-release
			return "result", nil
		})
		if err != nil || shared || v != "result" {
			t.Errorf("leader: v=%q err=%v shared=%v", v, err, shared)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, shared := g.Do(ctx, key, func() (string, error) {
			t.Error("waiter ran the computation")
			return "", nil
		})
		if !shared {
			t.Error("cancelled waiter reported shared=false")
		}
		waiterDone <- err
	}()
	for parked(g, key) < 1 {
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-waiterDone:
		if err != context.Canceled {
			t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still parked after 5s — cancellation ignored")
	}
	if n, inFlight := g.Waiting(key); n != 0 || !inFlight {
		t.Errorf("after cancellation: waiting=%d inFlight=%v, want 0, true", n, inFlight)
	}

	// A survivor joining after the cancellation still coalesces.
	survivor := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, shared := g.Do(context.Background(), key, func() (string, error) {
			t.Error("survivor ran the computation")
			return "", nil
		})
		if err != nil || !shared {
			t.Errorf("survivor: err=%v shared=%v", err, shared)
		}
		survivor <- v
	}()
	for parked(g, key) < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := <-survivor; got != "result" {
		t.Errorf("survivor result = %q, want leader's result", got)
	}
}

// TestFlightShardedStress coalesces concurrent work across many keys and
// shards at once; each key's computation must run while racing flights on
// other keys proceed independently.
func TestFlightShardedStress(t *testing.T) {
	g := NewFlight[[]byte](16)
	const keys = 64
	var evals [keys]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i := 0; i < keys; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := testKey(uint64(i))
				v, err, _ := g.Do(context.Background(), k, func() ([]byte, error) {
					mu.Lock()
					evals[i]++
					mu.Unlock()
					return []byte{byte(i)}, nil
				})
				if err != nil || len(v) != 1 || v[0] != byte(i) {
					t.Errorf("key %d: v=%v err=%v", i, v, err)
				}
			}(i)
		}
		wg.Wait()
	}
	for i, n := range evals {
		if n == 0 || n > 4 {
			t.Errorf("key %d evaluated %d times over 4 rounds", i, n)
		}
	}
}
