package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// MapChunksProgress evaluates fn over [0, n) in contiguous chunks of
// ChunkSize(n, workers, chunk) trials: fn(ctx, lo, hi, out[lo:hi]) must fill
// one result per trial index in [lo, hi). Chunks are claimed in index order
// by up to workers goroutines (the caller is one of them) and results land
// by index, so outputs are identical at any worker count AND any chunk size
// — clients derive per-trial randomness from TrialSeed(base, lo+i), never
// from chunk geometry.
//
// A failing chunk stops the claiming of later chunks; every chunk below it
// still runs, so the run reports the lowest failing trial, wrapped as
// "sweep: trial <i>: ", at any worker count and chunk size. A chunk names
// its failing trial by returning a *TrialError; any other error is charged
// to the chunk's first trial. A cancelled parent context aborts the run and
// returns the context's error.
//
// A non-nil progress is a completion-frontier callback:
// whenever the contiguous prefix of completed trials advances, progress is
// invoked with the new prefix length and the stable prefix of the result
// slice. Calls are serialized and done is strictly increasing, finishing
// with progress(n, out) once the last chunk lands; chunk 0 is evaluated
// before the rest fan out, so a run of two or more chunks always reports
// a prefix below n first. The prefix is safe to
// read without synchronization — every trial below the frontier has been
// fully written and no worker will touch it again — but it aliases the
// final result slice, so callers must not mutate it and must copy anything
// they keep past the callback.
//
// The callback runs on the worker that completed the chunk — the caller
// is one of the workers, so with one worker it is the caller — while the frontier lock is held: keep it short (snapshot a prefix,
// notify a channel) and never call back into the sweep from inside it.
func MapChunksProgress[T any](ctx context.Context, n, workers, chunk int, fn func(ctx context.Context, lo, hi int, out []T) error, progress func(done int, prefix []T)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: trial count must be non-negative, got %d", n)
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil chunk function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return []T{}, nil
	}
	workers = Workers(workers)
	chunk = ChunkSize(n, workers, chunk)
	nchunks := (n + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}

	out := make([]T, n)
	var (
		next    atomic.Int64
		errAt   atomic.Int64 // lowest failing trial so far; n while none
		mu      sync.Mutex
		firstEr error
		wg      sync.WaitGroup
		fr      *frontier
	)
	errAt.Store(int64(n))
	var emit func(done int)
	if progress != nil {
		fr = &frontier{done: make([]bool, nchunks), chunk: chunk, n: n}
		emit = func(done int) { progress(done, out[:done]) }
	}
	next.Store(-1)
	fail := func(at int, err error) {
		mu.Lock()
		if at < int(errAt.Load()) {
			errAt.Store(int64(at))
			firstEr = err
		}
		mu.Unlock()
	}
	// runChunk evaluates chunk c and advances the frontier; false means the
	// chunk failed.
	runChunk := func(c int) bool {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if err := fn(ctx, lo, hi, out[lo:hi]); err != nil {
			if te, ok := err.(*TrialError); ok {
				fail(te.Trial, te.Err)
			} else {
				fail(lo, err)
			}
			return false
		}
		if fr != nil {
			fr.complete(c, emit)
		}
		return true
	}
	// The caller is one of the workers: it runs the claim loop itself and
	// only workers-1 goroutines join it, so a one-worker run starts none.
	// Chunks are claimed in index order, so once a chunk fails every later
	// claim lies above it and is skipped; a chunk below it was claimed
	// earlier and runs to the end, so the lowest failing trial is found.
	worker := func() {
		for {
			c := int(next.Add(1))
			if c >= nchunks || int(errAt.Load()) < c*chunk || ctx.Err() != nil || !runChunk(c) {
				return
			}
		}
	}
	// With a progress callback, chunk 0 runs alone before the fan-out.
	// Racing workers could otherwise finish it last and jump the frontier
	// from 0 straight to n; run first, it guarantees that a multi-chunk run
	// reports a prefix below n before its final call.
	if fr != nil && ctx.Err() == nil {
		next.Store(0)
		if !runChunk(0) {
			workers = 0
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	if workers > 0 {
		worker()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, fmt.Errorf("sweep: trial %d: %w", errAt.Load(), firstEr)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: cancelled: %w", err)
	}
	return out, nil
}

// TrialError is a chunk function's failure at one trial: Trial is the
// trial's absolute index in [0, n), Err its error. MapChunksProgress
// reports it as "sweep: trial <Trial>: <Err>".
type TrialError struct {
	Trial int
	Err   error
}

func (e *TrialError) Error() string { return fmt.Sprintf("trial %d: %v", e.Trial, e.Err) }

// frontier tracks which chunks have completed and where the contiguous
// completed prefix ends. Completion order is arbitrary (workers race), but
// the frontier only ever advances, so progress callbacks see strictly
// increasing trial counts.
type frontier struct {
	mu    sync.Mutex
	done  []bool
	next  int // first chunk not yet complete
	chunk int
	n     int
}

// complete marks chunk c done and, if the prefix advanced, reports the new
// trial frontier. The callback runs under the lock — that is what makes
// calls serial and monotonic.
func (f *frontier) complete(c int, progress func(done int)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done[c] = true
	advanced := false
	for f.next < len(f.done) && f.done[f.next] {
		f.next++
		advanced = true
	}
	if !advanced {
		return
	}
	trials := f.next * f.chunk
	if trials > f.n {
		trials = f.n
	}
	progress(trials)
}
