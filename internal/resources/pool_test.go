package resources

import (
	"testing"
	"testing/quick"

	"wroofline/internal/engine"
)

func TestPoolBasicAcquireRelease(t *testing.T) {
	e := engine.New()
	p, err := NewPool(e, "gpu", 10)
	if err != nil {
		t.Fatal(err)
	}
	granted := false
	if err := p.Acquire(4, func() { granted = true }); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("grant should be immediate when nodes are free")
	}
	if p.Free() != 6 || p.InUse() != 4 {
		t.Errorf("free=%d inuse=%d", p.Free(), p.InUse())
	}
	if err := p.Release(4); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 10 {
		t.Errorf("free=%d after release", p.Free())
	}
}

func TestPoolQueuesWhenFull(t *testing.T) {
	e := engine.New()
	p, err := NewPool(e, "gpu", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(8, func() {}); err != nil {
		t.Fatal(err)
	}
	got := false
	if err := p.Acquire(4, func() { got = true }); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("4-node request should queue behind 8-node allocation")
	}
	if p.QueueLength() != 1 {
		t.Errorf("queue = %d", p.QueueLength())
	}
	if err := p.Release(8); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("release should dispatch the waiter")
	}
}

func TestPoolFIFOHeadOfLineBlocking(t *testing.T) {
	// FIFO (no backfill): a big request at the head blocks a small one even
	// though the small one would fit.
	e := engine.New()
	p, err := NewPool(e, "gpu", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(6, func() {}); err != nil {
		t.Fatal(err)
	}
	bigGranted, smallGranted := false, false
	if err := p.Acquire(8, func() { bigGranted = true }); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(2, func() { smallGranted = true }); err != nil {
		t.Fatal(err)
	}
	if smallGranted {
		t.Error("strict FIFO must not backfill the small request")
	}
	if err := p.Release(6); err != nil {
		t.Fatal(err)
	}
	if !bigGranted {
		t.Error("big request should be granted after release")
	}
	if !smallGranted {
		t.Error("small request should follow once the big one is placed")
	}
}

// The parallelism wall emerges: with 1792 nodes and 64-node tasks, exactly
// 28 tasks can hold nodes at once (paper Fig 1).
func TestPoolParallelismWall(t *testing.T) {
	e := engine.New()
	p, err := NewPool(e, "gpu", 1792)
	if err != nil {
		t.Fatal(err)
	}
	running := 0
	maxRunning := 0
	for i := 0; i < 40; i++ {
		if err := p.Acquire(64, func() {
			running++
			if running > maxRunning {
				maxRunning = running
			}
			// Hold for 10 s of virtual time, then release.
			if _, err := e.Schedule(10, func() {
				running--
				if err := p.Release(64); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxRunning != 28 {
		t.Errorf("max concurrent 64-node tasks = %d, want 28", maxRunning)
	}
	if p.PeakInUse() != 28*64 {
		t.Errorf("peak in use = %d, want %d", p.PeakInUse(), 28*64)
	}
	if p.Free() != 1792 {
		t.Errorf("free at end = %d", p.Free())
	}
}

func TestPoolValidation(t *testing.T) {
	e := engine.New()
	if _, err := NewPool(nil, "x", 4); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := NewPool(e, "x", 0); err == nil {
		t.Error("zero capacity should fail")
	}
	p, err := NewPool(e, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(0, func() {}); err == nil {
		t.Error("zero acquire should fail")
	}
	if err := p.Acquire(5, func() {}); err == nil {
		t.Error("oversized acquire should fail")
	}
	if err := p.Acquire(1, nil); err == nil {
		t.Error("nil callback should fail")
	}
	if err := p.Release(0); err == nil {
		t.Error("zero release should fail")
	}
	if err := p.Release(5); err == nil {
		t.Error("over-release should fail")
	}
	if p.Total() != 4 {
		t.Errorf("total = %d", p.Total())
	}
}

// Property: nodes are conserved — after any interleaving of acquire/release
// pairs the pool returns to full, and in-use never exceeds total.
func TestQuickPoolConservation(t *testing.T) {
	f := func(sizes []uint8) bool {
		e := engine.New()
		p, err := NewPool(e, "q", 100)
		if err != nil {
			return false
		}
		violated := false
		delay := 0.0
		for _, s := range sizes {
			n := int(s%20) + 1
			delay += 1
			if err := p.Acquire(n, func() {
				if p.InUse() > p.Total() || p.Free() < 0 {
					violated = true
				}
				if _, err := e.Schedule(delay, func() {
					if err := p.Release(n); err != nil {
						violated = true
					}
				}); err != nil {
					violated = true
				}
			}); err != nil {
				return false
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		return !violated && p.Free() == 100 && p.QueueLength() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPoolOfflineOnline(t *testing.T) {
	e := engine.New()
	p, err := NewPool(e, "gpu", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Idle nodes go down immediately.
	if err := p.Offline(3); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 7 || p.Down() != 3 || p.InUse() != 0 {
		t.Fatalf("after offline: free=%d down=%d inuse=%d", p.Free(), p.Down(), p.InUse())
	}
	// A request for more than the remaining capacity waits.
	granted := false
	if err := p.Acquire(8, func() { granted = true }); err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("grant should wait while nodes are down")
	}
	// Repair returns capacity and dispatches the waiter.
	if err := p.Online(3); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("repair should dispatch the waiting request")
	}
	if p.InUse() != 8 || p.Free() != 2 {
		t.Fatalf("after grant: free=%d inuse=%d", p.Free(), p.InUse())
	}
}

func TestPoolOfflineBusyNodesDrain(t *testing.T) {
	e := engine.New()
	p, err := NewPool(e, "gpu", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(4, func() {}); err != nil {
		t.Fatal(err)
	}
	// All nodes busy: removal is deferred until release.
	if err := p.Offline(2); err != nil {
		t.Fatal(err)
	}
	if p.Down() != 2 || p.Free() != 0 || p.InUse() != 4 {
		t.Fatalf("pending offline: free=%d down=%d inuse=%d", p.Free(), p.Down(), p.InUse())
	}
	if err := p.Release(1); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 0 || p.Down() != 2 || p.InUse() != 3 {
		t.Fatalf("after first release: free=%d down=%d inuse=%d", p.Free(), p.Down(), p.InUse())
	}
	if err := p.Release(3); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 2 || p.Down() != 2 || p.InUse() != 0 {
		t.Fatalf("after drain: free=%d down=%d inuse=%d", p.Free(), p.Down(), p.InUse())
	}
	// Online cancels pending removals first, then repairs down nodes.
	if err := p.Online(2); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 4 || p.Down() != 0 {
		t.Fatalf("after repair: free=%d down=%d", p.Free(), p.Down())
	}
	if err := p.Online(1); err == nil {
		t.Fatal("online with nothing down should error")
	}
	if err := p.Offline(5); err == nil {
		t.Fatal("offline beyond capacity should error")
	}
	if err := p.Offline(0); err == nil {
		t.Fatal("offline zero should error")
	}
}

// TestPoolSteadyStateAllocs pins queue reuse. With a backlog that never
// drains, every cycle appends one request and grants one. Popping the
// head by reslicing shed the array's front capacity, so those appends kept
// reallocating; a steady acquire/release cycle must allocate nothing, and
// compaction must keep grants in FIFO order.
func TestPoolSteadyStateAllocs(t *testing.T) {
	p, err := NewPool(engine.New(), "cpu", 1)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for id := 0; id < 40; id++ {
		if err := p.Acquire(1, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
		if id >= 4 { // keep three requests waiting behind the holder
			if err := p.Release(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, id := range order {
		if id != k {
			t.Fatalf("grant %d went to request %d, want FIFO order: %v", k, id, order)
		}
	}
	if p.QueueLength() != 3 {
		t.Fatalf("QueueLength = %d, want 3", p.QueueLength())
	}

	grants := 0
	granted := func() { grants++ }
	// AllocsPerRun truncates to whole allocations per run, so one run is
	// 64 cycles: a reallocation every few cycles still shows.
	cycles := func() {
		for i := 0; i < 64; i++ {
			if err := p.Acquire(1, granted); err != nil {
				t.Fatal(err)
			}
			if err := p.Release(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycles() // flush the recording callbacks
	if allocs := testing.AllocsPerRun(100, cycles); allocs != 0 {
		t.Errorf("64 steady Acquire/Release cycles allocate %.0f objects, want 0", allocs)
	}
	if p.QueueLength() != 3 || grants == 0 {
		t.Errorf("QueueLength = %d, grants = %d after the steady cycle", p.QueueLength(), grants)
	}
}
