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
		v, err, role := g.Do(context.Background(), key, func() (string, error) {
			evals++
			close(started)
			<-release
			return "result", nil
		})
		if err != nil || role != Leader {
			t.Errorf("leader: err=%v role=%v, want Leader", err, role)
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
			v, err, role := g.Do(context.Background(), key, func() (string, error) {
				t.Error("follower ran the computation")
				return "", nil
			})
			if err != nil || role != Waiter {
				t.Errorf("follower: err=%v role=%v, want Waiter", err, role)
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
	v, err, role := g.Do(context.Background(), key, func() (string, error) { return "ok", nil })
	if err != nil || role != Alone || v != "ok" {
		t.Errorf("retry after error: v=%q err=%v role=%v", v, err, role)
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
		v, err, role := g.Do(context.Background(), key, func() (string, error) {
			close(started)
			<-release
			return "result", nil
		})
		if err != nil || role != Leader || v != "result" {
			t.Errorf("leader: v=%q err=%v role=%v, want Leader (a survivor rides)", v, err, role)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err, role := g.Do(ctx, key, func() (string, error) {
			t.Error("waiter ran the computation")
			return "", nil
		})
		if role != Waiter {
			t.Errorf("cancelled waiter reported role %v, want Waiter", role)
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
		v, err, role := g.Do(context.Background(), key, func() (string, error) {
			t.Error("survivor ran the computation")
			return "", nil
		})
		if err != nil || role != Waiter {
			t.Errorf("survivor: err=%v role=%v, want Waiter", err, role)
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

// TestFlightExclusivity pins the leader's exclusivity report, which the
// gate relies on to recycle a result's buffers: a leader is Alone only when
// no waiter can still read its value — it ran with nobody attached, or
// every waiter gave up before the call left the table — and Leader as soon
// as one waiter is attached at completion.
func TestFlightExclusivity(t *testing.T) {
	// lead starts a leader on key that blocks until release closes, and
	// returns the channel its role arrives on.
	lead := func(g *Flight[string], key Key, release chan struct{}) <-chan Role {
		started := make(chan struct{})
		out := make(chan Role, 1)
		go func() {
			_, _, role := g.Do(context.Background(), key, func() (string, error) {
				close(started)
				<-release
				return "v", nil
			})
			out <- role
		}()
		<-started
		return out
	}
	// wait parks a waiter on key under ctx and returns its result channel.
	wait := func(g *Flight[string], key Key, ctx context.Context) <-chan error {
		out := make(chan error, 1)
		go func() {
			v, err, role := g.Do(ctx, key, func() (string, error) {
				t.Error("waiter ran the computation")
				return "", nil
			})
			if role != Waiter {
				t.Errorf("waiter role = %v, want Waiter", role)
			}
			if err == nil && v != "v" {
				t.Errorf("waiter value = %q, want the leader's", v)
			}
			out <- err
		}()
		return out
	}

	t.Run("alone", func(t *testing.T) {
		g := NewFlight[string](16)
		release := make(chan struct{})
		role := lead(g, keyOf("alone"), release)
		close(release)
		if got := <-role; got != Alone {
			t.Errorf("leader with no waiter: role %v, want Alone", got)
		}
	})

	t.Run("waiter", func(t *testing.T) {
		g := NewFlight[string](16)
		key := keyOf("waiter")
		release := make(chan struct{})
		role := lead(g, key, release)
		done := wait(g, key, context.Background())
		for parked(g, key) < 1 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		if got := <-role; got != Leader {
			t.Errorf("leader with a waiter: role %v, want Leader", got)
		}
		if err := <-done; err != nil {
			t.Errorf("waiter err = %v", err)
		}
	})

	t.Run("cancelled waiter", func(t *testing.T) {
		g := NewFlight[string](16)
		key := keyOf("cancelled")
		release := make(chan struct{})
		role := lead(g, key, release)
		ctx, cancel := context.WithCancel(context.Background())
		done := wait(g, key, ctx)
		for parked(g, key) < 1 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-done; err != context.Canceled {
			t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
		}
		close(release)
		if got := <-role; got != Alone {
			t.Errorf("leader whose only waiter gave up: role %v, want Alone", got)
		}
	})

	t.Run("attached at completion", func(t *testing.T) {
		// The waiter's context is cancelled only after the leader has
		// returned: it was attached when the call left the table, so
		// whichever way its select goes, the leader must not be Alone.
		for i := 0; i < 50; i++ {
			g := NewFlight[string](16)
			key := keyOf(fmt.Sprintf("attached-%d", i))
			release := make(chan struct{})
			role := lead(g, key, release)
			ctx, cancel := context.WithCancel(context.Background())
			done := wait(g, key, ctx)
			for parked(g, key) < 1 {
				time.Sleep(time.Millisecond)
			}
			close(release)
			got := <-role
			cancel()
			<-done
			if got != Leader {
				t.Fatalf("run %d: leader with a waiter attached at completion: role %v, want Leader", i, got)
			}
		}
	})
}
