package contention

import (
	"context"
	"errors"
	"runtime"
	"testing"

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

// The Monte Carlo must produce a bit-identical distribution at any worker
// count, including one worker.
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
		d, err := MonteCarlo(context.Background(), 200, 42, workers, 0, model, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.N() != base.N() || d.Mean() != base.Mean() || d.Min() != base.Min() || d.Max() != base.Max() {
			t.Fatalf("workers=%d: distribution differs from one worker", workers)
		}
		p99a, _ := base.Percentile(99)
		p99b, _ := d.Percentile(99)
		if p99a != p99b {
			t.Fatalf("workers=%d: p99 %v != %v", workers, p99b, p99a)
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
	d, err := MonteCarlo(context.Background(), 5000, 17, 0, 0, model, perDay(func(rate units.ByteRate) (float64, error) {
		if rate == model.Degraded {
			return 1, nil
		}
		return 0, nil
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if frac := d.Mean(); frac < 0.27 || frac > 0.33 {
		t.Errorf("bad-day fraction = %v, want ~0.3", frac)
	}
}
