package contention

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"wroofline/internal/sweep"
	"wroofline/internal/units"
)

// The chunked Monte Carlo must reproduce a per-day reference bit for bit
// at any worker count and batch size: day sampling depends only on (seed,
// day), never on chunk geometry.
func TestMonteCarloEnsembleBatchInvariance(t *testing.T) {
	model := Lognormal{Base: 1 * units.GBPS, Mu: 0.3, Sigma: 0.6}
	day := func(rate units.ByteRate) (float64, error) {
		return 1e12 / float64(rate), nil
	}
	// The reference samples and evaluates each day on its own, in day
	// order, from the day's own (seed, day) stream.
	samples := make([]float64, 300)
	for i := range samples {
		v, err := day(model.Sample(NewRNG(sweep.TrialSeed(42, i))))
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = v
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, batch := range []int{1, 7, 300, 1000, 0} { // 0 = auto
			days, err := MonteCarlo(context.Background(), 300, 42, workers, batch, model, perDay(day), nil)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstBitDiff(days, samples); i >= 0 {
				t.Fatalf("workers=%d batch=%d: day %d differs from the per-day reference", workers, batch, i)
			}
		}
	}
}

func TestMonteCarloEnsembleBatchErrors(t *testing.T) {
	ok := func([]units.ByteRate, []float64) error { return nil }
	model := TwoState{Base: 1, Degraded: 1, PBad: 0}
	if _, err := MonteCarlo(context.Background(), 0, 1, 1, 1, model, ok, nil); err == nil {
		t.Error("zero samples should fail")
	}
	if _, err := MonteCarlo(context.Background(), 10, 1, 1, 1, nil, ok, nil); err == nil {
		t.Error("nil sampler should fail")
	}
	if _, err := MonteCarlo(context.Background(), 10, 1, 1, 1, model, nil, nil); err == nil {
		t.Error("nil run should fail")
	}

	boom := errors.New("boom")
	_, err := MonteCarlo(context.Background(), 30, 7, 1, 10, model,
		func(days []units.ByteRate, out []float64) error {
			return boom
		}, nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "contention: days [0,10)") {
		t.Fatalf("err = %v, want the chunk's day range in the message", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MonteCarlo(ctx, 1000, 1, 2, 10, model, ok, nil); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
