package contention

import (
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"wroofline/internal/sweep"
	"wroofline/internal/units"
	"wroofline/internal/workloads"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/100", same)
	}
	// Zero seed must still work.
	z := NewRNG(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Error("zero seed produced a stuck stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestTwoStateSampler(t *testing.T) {
	m := TwoState{Base: 1 * units.GBPS, Degraded: 0.2 * units.GBPS, PBad: 0.3}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRNG(5)
	bad := 0
	const n = 10000
	for i := 0; i < n; i++ {
		rate := m.Sample(r)
		switch rate {
		case m.Base:
		case m.Degraded:
			bad++
		default:
			t.Fatalf("two-state sampler produced %v", float64(rate))
		}
	}
	frac := float64(bad) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("bad-day fraction = %v, want ~0.3", frac)
	}
	for _, bad := range []TwoState{
		{Base: 0, Degraded: 1, PBad: 0.5},
		{Base: 1, Degraded: 0, PBad: 0.5},
		{Base: 1, Degraded: 1, PBad: -0.1},
		{Base: 1, Degraded: 1, PBad: 1.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("TwoState %+v should fail validation", bad)
		}
	}
}

func TestLognormalSampler(t *testing.T) {
	m := Lognormal{Base: 1 * units.GBPS, Mu: 0.5, Sigma: 0.8}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRNG(9)
	for i := 0; i < 5000; i++ {
		rate := m.Sample(r)
		if rate <= 0 || rate > m.Base {
			t.Fatalf("lognormal contention produced %v (base %v); the factor must be >= 1",
				float64(rate), float64(m.Base))
		}
	}
	if err := (Lognormal{Base: 0}).Validate(); err == nil {
		t.Error("zero base should fail")
	}
	if err := (Lognormal{Base: 1, Sigma: -1}).Validate(); err == nil {
		t.Error("negative sigma should fail")
	}
}

// Monte Carlo over the LCLS simulation: two-state days reproduce the paper's
// bimodal makespan (17 min / 85 min), and the tail ratio captures the 5x
// swing.
func TestMonteCarloLCLS(t *testing.T) {
	model := TwoState{
		Base:     units.ByteRate(workloads.LCLSGoodDayRate),
		Degraded: units.ByteRate(workloads.LCLSBadDayRate),
		PBad:     0.4,
	}
	run := func(rate units.ByteRate) (float64, error) {
		cs, err := workloads.LCLSCori()
		if err != nil {
			return 0, err
		}
		cs.SimConfig.ExternalBW = 5 * rate
		cs.SimConfig.ExternalPerFlowCap = rate
		res, err := cs.Simulate()
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}
	days, err := MonteCarlo(context.Background(), 50, 123, 1, 0, model, perDay(run), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: same seed, same makespans.
	again, err := MonteCarlo(context.Background(), 50, 123, 1, 0, model, perDay(run), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(days, again) {
		t.Error("Monte Carlo is not deterministic for a fixed seed")
	}
	d, err := sweep.Summarize(days)
	if err != nil {
		t.Fatal(err)
	}
	// The distribution is bimodal at ~1021 and ~5021 (analysis constant in
	// this setup; only loading swings).
	if d.Min < 1000 || d.Min > 1100 {
		t.Errorf("min = %v, want ~1021 (good day)", d.Min)
	}
	if d.Max < 4900 || d.Max > 5200 {
		t.Errorf("max = %v, want ~5021 (bad day)", d.Max)
	}
	if d.TailRatio < 1.5 {
		t.Errorf("tail ratio = %v, want a heavy tail from contention", d.TailRatio)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	ok := func(units.ByteRate) (float64, error) { return 1, nil }
	sampler := TwoState{Base: 1, Degraded: 1, PBad: 0}
	if _, err := MonteCarlo(context.Background(), 0, 1, 1, 0, sampler, perDay(ok), nil); err == nil {
		t.Error("zero samples should fail")
	}
	if _, err := MonteCarlo(context.Background(), 1, 1, 1, 0, nil, perDay(ok), nil); err == nil {
		t.Error("nil sampler should fail")
	}
	if _, err := MonteCarlo(context.Background(), 1, 1, 1, 0, sampler, nil, nil); err == nil {
		t.Error("nil run should fail")
	}
	boom := func(units.ByteRate) (float64, error) { return 0, errFake }
	if _, err := MonteCarlo(context.Background(), 3, 1, 1, 0, sampler, perDay(boom), nil); err == nil {
		t.Error("run error should propagate")
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "boom" }

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		d, err := sweep.Summarize(samples) // sorts samples in place
		if err != nil {
			return false
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := sweep.Quantile(samples, a), sweep.Quantile(samples, b)
		return pa <= pb+1e-9 && pa >= d.Min-1e-9 && pb <= d.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
