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
	if p.free != 6 || nodesInUse(p) != 4 {
		t.Errorf("free=%d inuse=%d", p.free, nodesInUse(p))
	}
	if err := p.Release(4); err != nil {
		t.Fatal(err)
	}
	if p.free != 10 {
		t.Errorf("free=%d after release", p.free)
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
	if queued(p) != 1 {
		t.Errorf("queue = %d", queued(p))
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
	if p.free != 1792 {
		t.Errorf("free at end = %d", p.free)
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
				if nodesInUse(p) > p.Total() || p.free < 0 {
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
		return !violated && p.free == 100 && queued(p) == 0
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
	if p.free != 7 || nodesDown(p) != 3 || nodesInUse(p) != 0 {
		t.Fatalf("after offline: free=%d down=%d inuse=%d", p.free, nodesDown(p), nodesInUse(p))
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
	if nodesInUse(p) != 8 || p.free != 2 {
		t.Fatalf("after grant: free=%d inuse=%d", p.free, nodesInUse(p))
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
	if nodesDown(p) != 2 || p.free != 0 || nodesInUse(p) != 4 {
		t.Fatalf("pending offline: free=%d down=%d inuse=%d", p.free, nodesDown(p), nodesInUse(p))
	}
	if err := p.Release(1); err != nil {
		t.Fatal(err)
	}
	if p.free != 0 || nodesDown(p) != 2 || nodesInUse(p) != 3 {
		t.Fatalf("after first release: free=%d down=%d inuse=%d", p.free, nodesDown(p), nodesInUse(p))
	}
	if err := p.Release(3); err != nil {
		t.Fatal(err)
	}
	if p.free != 2 || nodesDown(p) != 2 || nodesInUse(p) != 0 {
		t.Fatalf("after drain: free=%d down=%d inuse=%d", p.free, nodesDown(p), nodesInUse(p))
	}
	// Online cancels pending removals first, then repairs down nodes.
	if err := p.Online(2); err != nil {
		t.Fatal(err)
	}
	if p.free != 4 || nodesDown(p) != 0 {
		t.Fatalf("after repair: free=%d down=%d", p.free, nodesDown(p))
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
	if queued(p) != 3 {
		t.Fatalf("queued = %d, want 3", queued(p))
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
	if queued(p) != 3 || grants == 0 {
		t.Errorf("queued = %d, grants = %d after the steady cycle", queued(p), grants)
	}
}

// nodesInUse, nodesDown and queued read the pool's node accounting: nodes
// pending removal are still held by tasks, so they count as in use until
// released, and as down from the moment they are marked.
func nodesInUse(p *Pool) int { return p.total - p.free - p.down }
func nodesDown(p *Pool) int  { return p.down + p.downPending }
func queued(p *Pool) int     { return len(p.queue) - p.head }
