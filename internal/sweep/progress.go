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
// The first chunk error cancels the remaining chunks and is returned
// wrapped with the chunk's trial range; concurrent failures resolve to the
// lowest-indexed chunk, keeping failure reports deterministic. A cancelled
// parent context aborts the run and returns the context's error.
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
	out, lo, hi, err := mapChunks(ctx, n, workers, chunk, fn, progress)
	if lo >= 0 {
		return nil, fmt.Errorf("sweep: trials [%d,%d): %w", lo, hi, err)
	}
	return out, err
}

// mapChunks is the one scheduler behind Map and MapChunksProgress. When a
// chunk fails it returns that chunk's trial range [lo, hi) and its bare
// error, so each face words the failure its own way; otherwise lo is -1 and
// err is nil, a cancellation or an argument error.
func mapChunks[T any](ctx context.Context, n, workers, chunk int, fn func(ctx context.Context, lo, hi int, out []T) error, progress func(done int, prefix []T)) ([]T, int, int, error) {
	if n < 0 {
		return nil, -1, -1, fmt.Errorf("sweep: trial count must be non-negative, got %d", n)
	}
	if fn == nil {
		return nil, -1, -1, fmt.Errorf("sweep: nil chunk function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return []T{}, -1, -1, nil
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
		mu      sync.Mutex
		errLo   = -1
		errHi   = -1
		firstEr error
		wg      sync.WaitGroup
		fr      *frontier
	)
	var emit func(done int)
	if progress != nil {
		fr = &frontier{done: make([]bool, nchunks), chunk: chunk, n: n}
		emit = func(done int) { progress(done, out[:done]) }
	}
	// One worker needs no cancellation fan-out: it runs every chunk on the
	// caller, in order, and the first failure ends its loop.
	runCtx, cancel := ctx, func() {}
	if workers > 1 {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	next.Store(-1)
	fail := func(lo, hi int, err error) {
		mu.Lock()
		if firstEr == nil || lo < errLo {
			errLo, errHi, firstEr = lo, hi, err
		}
		mu.Unlock()
		cancel()
	}
	// runChunk evaluates chunk c and advances the frontier; false means the
	// chunk failed.
	runChunk := func(c int) bool {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if err := fn(runCtx, lo, hi, out[lo:hi]); err != nil {
			fail(lo, hi, err)
			return false
		}
		if fr != nil {
			fr.complete(c, emit)
		}
		return true
	}
	// The caller is one of the workers: it runs the claim loop itself and
	// only workers-1 goroutines join it, so a one-worker run starts none.
	worker := func() {
		for {
			c := int(next.Add(1))
			if c >= nchunks || runCtx.Err() != nil || !runChunk(c) {
				return
			}
		}
	}
	// With a progress callback, chunk 0 runs alone before the fan-out.
	// Racing workers could otherwise finish it last and jump the frontier
	// from 0 straight to n; run first, it guarantees that a multi-chunk run
	// reports a prefix below n before its final call.
	if fr != nil && runCtx.Err() == nil {
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
		return nil, errLo, errHi, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, -1, -1, fmt.Errorf("sweep: cancelled: %w", err)
	}
	return out, -1, -1, nil
}

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
