// Package contention models stochastic bandwidth degradation. The paper's
// LCLS study observed the shared external path swing 5x between "good days"
// and "bad days"; this package turns that anecdote into a distribution:
// deterministic pseudo-random day sampling (two-state and lognormal
// models) and Monte Carlo makespan estimation over any run function, whose
// day makespans sweep.Summarize condenses into percentile summaries — the
// quantitative basis for end-to-end QOS arguments.
package contention

import (
	"context"
	"fmt"
	"math"
	"sync"

	"wroofline/internal/sweep"
	"wroofline/internal/units"
)

// RNG is a deterministic xorshift64* generator. The simulator and tests
// need reproducible streams, so the package does not use math/rand's global
// state.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator; a zero seed is replaced by a fixed constant
// (xorshift cannot leave state zero).
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.reseed(seed)
	return r
}

// reseed restarts the generator in place exactly as NewRNG(seed) starts a
// new one, so a loop over seeded trials can reuse one generator.
func (r *RNG) reseed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.state = seed
}

// Uint64 advances the generator.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Normal returns a standard-normal sample (Box-Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Sampler draws an effective bandwidth for one "day".
type Sampler interface {
	// Sample returns the day's effective rate.
	Sample(r *RNG) units.ByteRate
}

// TwoState is the paper's good-day/bad-day model: with probability PBad the
// rate is Degraded, otherwise Base.
type TwoState struct {
	// Base and Degraded are the two observed rates.
	Base, Degraded units.ByteRate
	// PBad is the probability of a degraded day, in [0, 1].
	PBad float64
}

// Validate checks the model parameters.
func (t TwoState) Validate() error {
	if t.Base <= 0 || t.Degraded <= 0 {
		return fmt.Errorf("contention: rates must be positive, got base=%v degraded=%v",
			float64(t.Base), float64(t.Degraded))
	}
	if t.PBad < 0 || t.PBad > 1 || math.IsNaN(t.PBad) {
		return fmt.Errorf("contention: PBad must be in [0,1], got %v", t.PBad)
	}
	return nil
}

// Sample draws a day.
func (t TwoState) Sample(r *RNG) units.ByteRate {
	if r.Float64() < t.PBad {
		return t.Degraded
	}
	return t.Base
}

// Lognormal degrades a base rate by a lognormal contention factor >= 1:
// rate = Base / exp(Sigma * N(0,1) + Mu) clamped so the factor never drops
// below 1 (contention never makes a shared link faster than its quiet
// rate).
type Lognormal struct {
	// Base is the uncontended rate.
	Base units.ByteRate
	// Mu and Sigma parameterize the log of the slowdown factor.
	Mu, Sigma float64
}

// Validate checks the model parameters.
func (l Lognormal) Validate() error {
	if l.Base <= 0 {
		return fmt.Errorf("contention: base rate must be positive, got %v", float64(l.Base))
	}
	if l.Sigma < 0 || math.IsNaN(l.Sigma) || math.IsNaN(l.Mu) {
		return fmt.Errorf("contention: bad lognormal parameters mu=%v sigma=%v", l.Mu, l.Sigma)
	}
	return nil
}

// Sample draws a day.
func (l Lognormal) Sample(r *RNG) units.ByteRate {
	factor := math.Exp(l.Mu + l.Sigma*r.Normal())
	if factor < 1 {
		factor = 1
	}
	return units.ByteRate(float64(l.Base) / factor)
}

// MonteCarlo draws n days from the sampler and evaluates their makespans
// in contiguous chunks of sweep.ChunkSize(n, workers, batch) days on the
// sweep scheduler (sweep.Workers semantics: workers <= 0 means GOMAXPROCS).
// run receives each chunk's day rates in one call (the slice is reused once
// run returns) and fills one makespan per day — the shape a batch simulator
// executor (sim.Plan.RunBatch) consumes without per-day dispatch overhead;
// a per-day evaluator simply loops over the chunk.
//
// It returns the day makespans in day order (sweep.Summarize condenses
// them). Day i's RNG is seeded from (seed, i) via sweep.TrialSeed regardless
// of chunk geometry, so the makespans are bit-identical at any worker count
// and batch size; cancelling ctx aborts the remaining days.
//
// A non-nil progress is a completion-frontier callback
// (sweep.MapChunksProgress semantics): it fires with strictly increasing
// done counts and the stable makespan prefix, so a streaming caller can
// summarize partial distributions while the ensemble is still running. The
// returned makespans are bit-identical to a progress-free call.
func MonteCarlo(ctx context.Context, n int, seed uint64, workers, batch int, s Sampler, run func(days []units.ByteRate, out []float64) error, progress func(done int, makespans []float64)) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("contention: need a positive sample count, got %d", n)
	}
	if s == nil || run == nil {
		return nil, fmt.Errorf("contention: nil sampler or run function")
	}
	return sweep.MapChunksProgress(ctx, n, workers, batch, func(_ context.Context, lo, hi int, out []float64) error {
		ds := dayPool.Get().(*dayScratch)
		defer dayPool.Put(ds)
		if cap(ds.days) < hi-lo {
			ds.days = make([]units.ByteRate, hi-lo)
		}
		days := ds.days[:hi-lo]
		for i := range days {
			// One generator reseeded per day: day i still draws from its
			// own (seed, i) stream.
			ds.rng.reseed(sweep.TrialSeed(seed, lo+i))
			rate := s.Sample(&ds.rng)
			if rate <= 0 {
				return fmt.Errorf("contention: sampler produced non-positive rate %v", float64(rate))
			}
			days[i] = rate
		}
		if err := run(days, out); err != nil {
			return fmt.Errorf("contention: days [%d,%d): %w", lo, hi, err)
		}
		return nil
	}, progress)
}

// dayScratch is one chunk's day rates and the generator that draws them,
// pooled so a chunk allocates neither.
type dayScratch struct {
	rng  RNG
	days []units.ByteRate
}

var dayPool = sync.Pool{New: func() any { return new(dayScratch) }}
