package contention

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"wroofline/internal/sweep"
	"wroofline/internal/units"
)

// perDay adapts a one-day evaluator to MonteCarlo's chunk function: it
// loops over the chunk's days in order.
func perDay(run func(units.ByteRate) (float64, error)) func([]units.ByteRate, []float64) error {
	return func(days []units.ByteRate, out []float64) error {
		for i, rate := range days {
			v, err := run(rate)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
}

// firstBitDiff returns the first day whose makespans differ in any bit, or
// -1 when the two runs agree day for day (a length mismatch differs at the
// shorter length).
func firstBitDiff(a, b []float64) int {
	for i := range min(len(a), len(b)) {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// The Monte Carlo must produce bit-identical makespans at any worker count,
// including one worker.
func TestMonteCarloEnsembleWorkerCountInvariance(t *testing.T) {
	model := Lognormal{Base: 1 * units.GBPS, Mu: 0.3, Sigma: 0.6}
	run := perDay(func(rate units.ByteRate) (float64, error) {
		return 1e12 / float64(rate), nil // a 1 TB transfer on the day's rate
	})
	base, err := MonteCarlo(context.Background(), 200, 42, 1, 0, model, run, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 13} {
		days, err := MonteCarlo(context.Background(), 200, 42, workers, 0, model, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(days, base); i >= 0 {
			t.Fatalf("workers=%d: day %d differs from one worker", workers, i)
		}
	}
}

func TestMonteCarloEnsembleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MonteCarlo(ctx, 1000, 1, 2, 0,
		TwoState{Base: 1, Degraded: 1, PBad: 0},
		perDay(func(units.ByteRate) (float64, error) { return 1, nil }), nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Per-trial seeding must still reproduce the sampler's statistics: a 30%
// bad-day probability shows up as ~30% degraded trials.
func TestMonteCarloEnsembleStatistics(t *testing.T) {
	model := TwoState{Base: 1 * units.GBPS, Degraded: 0.2 * units.GBPS, PBad: 0.3}
	days, err := MonteCarlo(context.Background(), 5000, 17, 0, 0, model, perDay(func(rate units.ByteRate) (float64, error) {
		if rate == model.Degraded {
			return 1, nil
		}
		return 0, nil
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sweep.Summarize(days)
	if err != nil {
		t.Fatal(err)
	}
	if frac := d.Mean; frac < 0.27 || frac > 0.33 {
		t.Errorf("bad-day fraction = %v, want ~0.3", frac)
	}
}
