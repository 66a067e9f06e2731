package resources

import (
	"math"
	"testing"
	"testing/quick"

	"wroofline/internal/engine"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleTransfer(t *testing.T) {
	e := engine.New()
	l, err := NewLink(e, "fs", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var start, end float64 = -1, -1
	if err := l.Transfer(1000, func(s, en float64) { start, end = s, en }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 0 || !almost(end, 10, 1e-9) {
		t.Errorf("transfer window [%v, %v], want [0, 10]", start, end)
	}
	if len(l.heap) != 0 {
		t.Error("link should be drained")
	}
}

func TestZeroByteTransferCompletesImmediately(t *testing.T) {
	e := engine.New()
	l, err := NewLink(e, "fs", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	if err := l.Transfer(0, func(s, en float64) {
		called = true
		if s != en {
			t.Errorf("zero transfer window [%v, %v]", s, en)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("zero-byte transfer should complete synchronously")
	}
}

func TestFairShareTwoFlows(t *testing.T) {
	// Two equal flows on a 100 B/s link: each runs at 50 B/s, both finish
	// at t=20 for 1000 B each.
	e := engine.New()
	l, err := NewLink(e, "fs", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ends []float64
	for i := 0; i < 2; i++ {
		if err := l.Transfer(1000, func(_, en float64) { ends = append(ends, en) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 {
		t.Fatalf("completions = %d", len(ends))
	}
	for _, en := range ends {
		if !almost(en, 20, 1e-9) {
			t.Errorf("end = %v, want 20", en)
		}
	}
}

func TestFairShareRateRecomputedOnExit(t *testing.T) {
	// Flow A: 1000 B, flow B: 500 B on a 100 B/s link. Both run at 50 B/s.
	// B finishes at t=10; A then gets the full 100 B/s for its remaining
	// 500 B, finishing at t=15.
	e := engine.New()
	l, err := NewLink(e, "fs", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var endA, endB float64
	if err := l.Transfer(1000, func(_, en float64) { endA = en }); err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer(500, func(_, en float64) { endB = en }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(endB, 10, 1e-9) {
		t.Errorf("endB = %v, want 10", endB)
	}
	if !almost(endA, 15, 1e-9) {
		t.Errorf("endA = %v, want 15 (rate recomputation)", endA)
	}
}

func TestFairShareLateJoiner(t *testing.T) {
	// A starts alone (100 B/s). At t=5, B (250 B) joins; both drop to 50.
	// A has 500 B left at t=5 -> A and B both finish at t=10; A total 1000 B.
	e := engine.New()
	l, err := NewLink(e, "fs", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var endA, endB float64
	if err := l.Transfer(1000, func(_, en float64) { endA = en }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(5, func() {
		if err := l.Transfer(250, func(_, en float64) { endB = en }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(endB, 10, 1e-9) {
		t.Errorf("endB = %v, want 10", endB)
	}
	if !almost(endA, 12.5, 1e-9) {
		// A: 5s at 100 (500 B), then shares 50 B/s until B exits at t=10
		// (250 B more), then 100 B/s for the last 250 B -> 12.5.
		t.Errorf("endA = %v, want 12.5", endA)
	}
}

func TestPerFlowCap(t *testing.T) {
	// LCLS good day: external link capacity 5 GB/s with a per-flow cap of
	// 1 GB/s. One flow of 10 GB takes 10 s despite spare capacity.
	e := engine.New()
	l, err := NewLink(e, "external", 5e9, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	var end float64
	if err := l.Transfer(10e9, func(_, en float64) { end = en }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(end, 10, 1e-9) {
		t.Errorf("capped flow end = %v, want 10", end)
	}
}

func TestPerFlowCapManyFlows(t *testing.T) {
	// 5 flows of 1 TB each, cap 1 GB/s, capacity 5 GB/s: all finish at 1000 s
	// (the LCLS good-day loading phase).
	e := engine.New()
	l, err := NewLink(e, "external", 5e9, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	var ends []float64
	for i := 0; i < 5; i++ {
		if err := l.Transfer(1e12, func(_, en float64) { ends = append(ends, en) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, en := range ends {
		if !almost(en, 1000, 1e-9) {
			t.Errorf("end = %v, want 1000", en)
		}
	}
	// 6th flow would contend: capacity/6 < cap -> 5e9/6 each.
}

func TestContentionBelowCap(t *testing.T) {
	// 10 flows on 5 B/s with cap 1 B/s: equal share 0.5 each.
	e := engine.New()
	l, err := NewLink(e, "x", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ends []float64
	for i := 0; i < 10; i++ {
		if err := l.Transfer(5, func(_, en float64) { ends = append(ends, en) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, en := range ends {
		if !almost(en, 10, 1e-9) {
			t.Errorf("end = %v, want 10 (0.5 B/s each)", en)
		}
	}
}

func TestLinkValidation(t *testing.T) {
	e := engine.New()
	if _, err := NewLink(nil, "x", 1, 0); err == nil {
		t.Error("nil engine should fail")
	}
	for _, capy := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewLink(e, "x", capy, 0); err == nil {
			t.Errorf("capacity %v should fail", capy)
		}
	}
	if _, err := NewLink(e, "x", 1, -1); err == nil {
		t.Error("negative per-flow cap should fail")
	}
	l, err := NewLink(e, "x", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := l.Transfer(b, nil); err == nil {
			t.Errorf("transfer of %v should fail", b)
		}
	}
	for _, capy := range []float64{0, -2, math.NaN()} {
		if err := l.Reset(capy, 0); err == nil {
			t.Errorf("Reset(%v, 0) should fail", capy)
		}
	}
}

// Property: conservation — with n concurrent equal flows, total transfer
// time equals volume/min(cap, C/n) regardless of n, and all flows finish
// together.
func TestQuickFairShareConservation(t *testing.T) {
	f := func(nRaw uint8, volRaw uint16, capRaw uint16) bool {
		n := int(nRaw%8) + 1
		vol := float64(volRaw%1000) + 1
		capacity := float64(capRaw%1000) + 1
		e := engine.New()
		l, err := NewLink(e, "q", capacity, 0)
		if err != nil {
			return false
		}
		var ends []float64
		for i := 0; i < n; i++ {
			if err := l.Transfer(vol, func(_, en float64) { ends = append(ends, en) }); err != nil {
				return false
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(ends) != n {
			return false
		}
		want := vol / (capacity / float64(n))
		for _, en := range ends {
			if !almost(en, want, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: work conservation — total bytes moved over the busy period
// never exceeds capacity * elapsed (within epsilon), for staggered flows.
func TestQuickWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		e := engine.New()
		capacity := 100.0
		l, err := NewLink(e, "q", capacity, 0)
		if err != nil {
			return false
		}
		rng := uint64(seed)
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64((rng>>33)%1000) + 1
		}
		totalBytes := 0.0
		var lastEnd float64
		for i := 0; i < 5; i++ {
			vol := next()
			startAt := next() / 100
			totalBytes += vol
			if _, err := e.Schedule(startAt, func() {
				if err := l.Transfer(vol, func(_, en float64) {
					if en > lastEnd {
						lastEnd = en
					}
				}); err != nil {
					panic(err)
				}
			}); err != nil {
				return false
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		// The busy period cannot be shorter than totalBytes/capacity.
		return lastEnd >= totalBytes/capacity-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
