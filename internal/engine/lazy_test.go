package engine

import (
	"math"
	"testing"
)

// TestPendingExcludesCancelled is the regression test for the live count
// lazily-deleted events: cancel half a large queue and the live count must
// drop immediately, before any event is popped.
func TestPendingExcludesCancelled(t *testing.T) {
	e := New()
	const n = 1000
	events := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		ev, err := e.Schedule(float64(i+1), func() {})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if got := pending(e); got != n {
		t.Fatalf("Pending before cancel = %d, want %d", got, n)
	}
	for i := 0; i < n; i += 2 {
		events[i].Cancel()
	}
	if got := pending(e); got != n/2 {
		t.Fatalf("Pending after cancelling half = %d, want %d", got, n/2)
	}
	// Double-cancel must not double-count.
	for i := 0; i < n; i += 2 {
		events[i].Cancel()
	}
	if got := pending(e); got != n/2 {
		t.Fatalf("Pending after double-cancel = %d, want %d", got, n/2)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != n/2 {
		t.Fatalf("fired %d events, want %d", fired, n/2)
	}
	if got := pending(e); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// TestCompaction drives the cancelled population past half the queue and
// checks the heap still fires the survivors in order.
func TestCompaction(t *testing.T) {
	e := New()
	const n = 4096
	events := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		ev, err := e.Schedule(float64(i+1), func() {})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	// Cancel all but every 8th event: crosses the half-cancelled threshold
	// several times, triggering compaction mid-loop.
	for i, ev := range events {
		if i%8 != 0 {
			ev.Cancel()
		}
	}
	want := n / 8
	if got := pending(e); got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	// After compaction the physical queue should be close to the live count,
	// not still holding thousands of corpses.
	if len(e.events) > 2*want+compactMin {
		t.Fatalf("heap not compacted: len=%d live=%d", len(e.events), want)
	}
	last := 0.0
	fired := 0
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("events out of order: %v after %v", e.Now(), last)
		}
		last = e.Now()
		fired++
	}
	if fired != want {
		t.Fatalf("fired %d, want %d", fired, want)
	}
}

// TestCancelAfterPopIsNoop covers the free-list safety contract: Cancel on
// an event that already fired (index < 0, possibly recycled) must not poison
// a later event that reused the same allocation.
func TestCancelAfterPopIsNoop(t *testing.T) {
	e := New()
	ev1, err := e.Schedule(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("Step returned false")
	}
	ev1.Cancel() // stale cancel after fire: must be a no-op
	ev2, err := e.Schedule(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if ev2 != ev1 {
		t.Log("free list did not recycle the event; contract still holds")
	}
	if ev2.canceled {
		t.Fatal("recycled event inherited cancellation from stale Cancel")
	}
	if got := pending(e); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	if !e.Step() {
		t.Fatal("recycled event did not fire")
	}
}

// TestSteadyStateAllocFree checks the free list actually recycles: a long
// schedule/fire/cancel loop must not allocate new events once warm.
func TestSteadyStateAllocFree(t *testing.T) {
	e := New()
	allocs := testing.AllocsPerRun(1000, func() {
		ev, err := e.Schedule(1, func() {})
		if err != nil {
			t.Fatal(err)
		}
		dead, err := e.Schedule(2, func() {})
		if err != nil {
			t.Fatal(err)
		}
		dead.Cancel()
		_ = ev
		for e.Step() {
		}
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state event loop allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestReset(t *testing.T) {
	e := New()
	for i := 0; i < 100; i++ {
		if _, err := e.Schedule(float64(i+1), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if !e.Step() {
			t.Fatal("Step returned false")
		}
	}
	if _, err := e.Schedule(math.Inf(1), func() {}); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Now() != 0 || pending(e) != 0 || e.processed != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d processed=%d", e.Now(), pending(e), e.processed)
	}
	// A reset engine must behave like a fresh one, including seq restart.
	order := []float64{}
	for _, at := range []float64{3, 1, 2} {
		at := at
		if _, err := e.At(at, func() { order = append(order, at) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("post-Reset run order = %v", order)
	}
	// And the free list should make the re-run allocation-light.
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		for i := 0; i < 50; i++ {
			if _, err := e.Schedule(float64(i+1), func() {}); err != nil {
				t.Fatal(err)
			}
		}
		for e.Step() {
		}
	})
	if allocs > 0.5 {
		t.Fatalf("Reset+rerun allocates %.1f allocs/op, want 0", allocs)
	}
}
