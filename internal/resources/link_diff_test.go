package resources

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wroofline/internal/engine"
)

// diffSchedule is a randomized flow arrival schedule replayed against both
// link implementations.
type diffSchedule struct {
	capacity   float64
	perFlowCap float64
	arrivals   []diffArrival
}

type diffArrival struct {
	at    float64
	bytes float64
}

// genSchedule derives a schedule from a seed: mixed flow sizes across six
// orders of magnitude, arrival times that frequently collide (quantized to a
// coarse grid half the time, to exercise tie-breaking), optional per-flow
// caps.
func genSchedule(seed int64) diffSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := diffSchedule{
		capacity: math.Exp(rng.Float64()*math.Log(1e9/1e3)) * 1e3, // 1e3..1e9 log-uniform
	}
	if rng.Intn(2) == 0 {
		s.perFlowCap = s.capacity * (0.05 + 1.45*rng.Float64())
	}
	n := 1 + rng.Intn(30)
	for i := 0; i < n; i++ {
		at := rng.Float64() * 10
		if rng.Intn(2) == 0 {
			at = math.Floor(at*4) / 4 // force simultaneous arrivals
		}
		bytes := math.Exp(rng.Float64()*math.Log(1e6)) * s.capacity / 1e3
		s.arrivals = append(s.arrivals, diffArrival{at: at, bytes: bytes})
	}
	return s
}

// runBucketed replays a schedule against the production Link and returns
// each flow's (start, end) indexed by arrival.
func runBucketed(t *testing.T, s diffSchedule) ([]float64, []float64) {
	t.Helper()
	e := engine.New()
	l, err := NewLink(e, "diff", s.capacity, s.perFlowCap)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]float64, len(s.arrivals))
	ends := make([]float64, len(s.arrivals))
	for i := range ends {
		ends[i] = math.NaN()
	}
	for i, a := range s.arrivals {
		i, a := i, a
		if _, err := e.At(a.at, func() {
			if err := l.Transfer(a.bytes, func(st, en float64) {
				starts[i], ends[i] = st, en
			}); err != nil {
				t.Errorf("bucketed transfer %d: %v", i, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(l.heap) != 0 {
		t.Fatalf("bucketed link not drained: %d flows left", len(l.heap))
	}
	return starts, ends
}

// runReference replays the same schedule against the preserved per-flow
// settle/reschedule implementation.
func runReference(t *testing.T, s diffSchedule) ([]float64, []float64) {
	t.Helper()
	e := engine.New()
	l, err := newRefLink(e, "ref", s.capacity, s.perFlowCap)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]float64, len(s.arrivals))
	ends := make([]float64, len(s.arrivals))
	for i := range ends {
		ends[i] = math.NaN()
	}
	for i, a := range s.arrivals {
		i, a := i, a
		if _, err := e.At(a.at, func() {
			if err := l.transfer(a.bytes, func(st, en float64) {
				starts[i], ends[i] = st, en
			}); err != nil {
				t.Errorf("reference transfer %d: %v", i, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !l.drain() {
		t.Fatalf("reference link not drained: %d flows left", l.activeFlows())
	}
	return starts, ends
}

// diffClose compares two completion times. The implementations integrate
// progress along different float paths and snap completions with a
// nanosecond tolerance, so times can differ by ~1ns absolute plus rounding
// relative to magnitude.
func diffClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-7+1e-9*scale
}

// TestQuickDifferentialLink is the tentpole's correctness proof: on 1000
// randomized schedules the rate-bucketed link must reproduce the reference
// implementation's per-flow completion times.
func TestQuickDifferentialLink(t *testing.T) {
	count := 0
	prop := func(seed int64) bool {
		count++
		s := genSchedule(seed)
		bStarts, bEnds := runBucketed(t, s)
		rStarts, rEnds := runReference(t, s)
		for i := range s.arrivals {
			if math.IsNaN(bEnds[i]) || math.IsNaN(rEnds[i]) {
				t.Logf("seed %d flow %d never completed (bucketed=%v ref=%v)", seed, i, bEnds[i], rEnds[i])
				return false
			}
			if bStarts[i] != rStarts[i] {
				t.Logf("seed %d flow %d start mismatch: bucketed=%v ref=%v", seed, i, bStarts[i], rStarts[i])
				return false
			}
			if !diffClose(bEnds[i], rEnds[i]) {
				t.Logf("seed %d flow %d end mismatch: bucketed=%.12g ref=%.12g (diff %.3g)",
					seed, i, bEnds[i], rEnds[i], bEnds[i]-rEnds[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if count < 1000 {
		t.Fatalf("differential property ran %d schedules, want 1000", count)
	}
}

// TestQuickBucketedCapacityConservation checks the bucketed link's max-min
// invariants directly on randomized schedules (the capacity never changes, so
// the bound is exact): total bytes delivered never exceed capacity × busy time,
// and each flow's average rate never exceeds its per-flow cap.
func TestQuickBucketedCapacityConservation(t *testing.T) {
	prop := func(seed int64) bool {
		s := genSchedule(seed)
		starts, ends := runBucketed(t, s)
		first, last := math.Inf(1), math.Inf(-1)
		total := 0.0
		for i, a := range s.arrivals {
			total += a.bytes
			if a.at < first {
				first = a.at
			}
			if ends[i] > last {
				last = ends[i]
			}
			// Per-flow cap: bytes / duration <= cap (within tolerance).
			if s.perFlowCap > 0 {
				dur := ends[i] - starts[i]
				if dur > 0 && a.bytes/dur > s.perFlowCap*(1+1e-6) {
					t.Logf("seed %d flow %d exceeds per-flow cap: %v > %v",
						seed, i, a.bytes/dur, s.perFlowCap)
					return false
				}
			}
		}
		// Aggregate: the link cannot deliver more than capacity over the
		// span from first arrival to last completion.
		if span := last - first; span > 0 && total > s.capacity*span*(1+1e-6) {
			t.Logf("seed %d overdelivers: %v bytes in %v s at capacity %v", seed, total, span, s.capacity)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
