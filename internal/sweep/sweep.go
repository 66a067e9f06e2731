// Package sweep is the toolkit's parallel ensemble engine: it fans
// independent model evaluations — Monte Carlo contention trials, what-if
// scenario grids, generated-scenario corpora — across a bounded pool of
// goroutines while keeping results bit-identical regardless of worker count
// or completion order.
//
// Determinism rests on two rules every client follows:
//
//  1. Each trial owns its randomness. A trial's RNG is seeded from
//     (base seed, trial index) via TrialSeed, never from a shared stream,
//     so trial i draws the same values whether it runs first, last, or
//     concurrently with trial j.
//  2. Results land in index order. Map writes each trial's result into the
//     trial's slot of a preallocated slice; summaries then walk that slice
//     in index order (Summarize), so the output never depends on which
//     worker finished first.
//
// Cancellation flows through context.Context: the first trial error — or a
// cancelled parent context — stops the remaining trials.
package sweep

import (
	"context"
	"fmt"
	"runtime"
)

// TrialSeed derives the RNG seed for one trial from the ensemble's base
// seed, using the splitmix64 finalizer. Seeds for adjacent trial indices are
// statistically independent, and the mapping depends only on (base, trial) —
// the foundation of worker-count-independent determinism.
func TrialSeed(base uint64, trial int) uint64 {
	z := base + (uint64(trial)+1)*0x9E3779B97F4A7C15 // golden-ratio increment
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 { // xorshift generators cannot leave state zero
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// Workers normalizes a worker-count request: n <= 0 means "one worker per
// available CPU" (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map evaluates fn(ctx, i) for every trial i in [0, n) on up to workers
// goroutines (Workers(workers) applies, and the pool never exceeds n). It is
// MapChunksProgress with one trial per chunk and no progress callback, so
// results land by trial index and identical inputs produce identical
// outputs at any worker count.
//
// A trial error stops the remaining trials and is returned wrapped with its
// trial index; when several trials fail the lowest-indexed error wins,
// keeping failure reports deterministic too. A cancelled parent context
// aborts the run and returns the context's error.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, trial int) (T, error)) ([]T, error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil trial function")
	}
	return MapChunksProgress(ctx, n, workers, 1, func(ctx context.Context, lo, _ int, out []T) (err error) {
		out[0], err = fn(ctx, lo)
		return err
	}, nil)
}

// ChunkSize normalizes a batch-size request for MapChunksProgress. A positive
// request is used as-is; otherwise the default aims at ~8 chunks per worker
// (so the pool load-balances across uneven chunk costs) clamped to [1, 1024]
// (so per-chunk state like a batch executor's scratch stays cache-resident
// and is still amortized over many trials).
func ChunkSize(n, workers, requested int) int {
	if requested > 0 {
		return requested
	}
	c := n / (Workers(workers) * 8)
	if c < 1 {
		return 1
	}
	if c > 1024 {
		return 1024
	}
	return c
}

// GridSize returns the cell count of a cartesian product with the given
// per-dimension sizes. Every dimension must be positive.
func GridSize(dims []int) (int, error) {
	size := 1
	for i, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("sweep: grid dimension %d has size %d, need >= 1", i, d)
		}
		if size > 1<<40/d {
			return 0, fmt.Errorf("sweep: grid of %v cells is too large", dims)
		}
		size *= d
	}
	return size, nil
}

// GridCoords decomposes a flat cell index into per-dimension coordinates in
// row-major order (the last dimension varies fastest). It inverts the
// enumeration Map uses when sweeping a grid, so cell ordering — and with it
// report output — is deterministic.
func GridCoords(dims []int, flat int) ([]int, error) {
	size, err := GridSize(dims)
	if err != nil {
		return nil, err
	}
	if flat < 0 || flat >= size {
		return nil, fmt.Errorf("sweep: cell index %d outside grid of %d cells", flat, size)
	}
	coords := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		coords[i] = flat % dims[i]
		flat /= dims[i]
	}
	return coords, nil
}
