package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunkSize(t *testing.T) {
	if got := ChunkSize(10000, 4, 256); got != 256 {
		t.Errorf("explicit request: got %d, want 256", got)
	}
	if got := ChunkSize(10000, 4, 0); got != 10000/(4*8) {
		t.Errorf("auto: got %d, want %d", got, 10000/(4*8))
	}
	if got := ChunkSize(5, 4, 0); got != 1 {
		t.Errorf("small n must clamp to 1, got %d", got)
	}
	if got := ChunkSize(10_000_000, 1, 0); got != 1024 {
		t.Errorf("huge n must clamp to 1024, got %d", got)
	}
	// workers <= 0 normalizes through Workers.
	want := 100_000 / (runtime.GOMAXPROCS(0) * 8)
	if want < 1 {
		want = 1
	}
	if want > 1024 {
		want = 1024
	}
	if got := ChunkSize(100_000, 0, 0); got != want {
		t.Errorf("auto workers: got %d, want %d", got, want)
	}
}

func TestMapChunksOrderAndValues(t *testing.T) {
	// n not divisible by chunk exercises the short tail chunk.
	got, err := MapChunksProgress(context.Background(), 10, 3, 3, func(_ context.Context, lo, hi int, out []int) error {
		if hi-lo != len(out) {
			return fmt.Errorf("out len %d for range [%d,%d)", len(out), lo, hi)
		}
		for i := range out {
			out[i] = (lo + i) * (lo + i)
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len %d, want 10", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

// The extended determinism guarantee: identical results at any worker count
// AND any chunk size, because per-trial values derive from TrialSeed(base,
// lo+i), never from chunk geometry.
func TestMapChunksDeterministicAcrossGeometry(t *testing.T) {
	run := func(workers, chunk int) []float64 {
		out, err := MapChunksProgress(context.Background(), 500, workers, chunk, func(_ context.Context, lo, hi int, out []float64) error {
			if lo%7 == 0 { // stagger completion order
				time.Sleep(time.Microsecond)
			}
			for i := range out {
				out[i] = float64(TrialSeed(99, lo+i)%1000) / 7
			}
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1, 1)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, chunk := range []int{1, 3, 64, 500, 1000, 0} { // 0 = auto
			if !reflect.DeepEqual(base, run(workers, chunk)) {
				t.Fatalf("results differ at workers=%d chunk=%d", workers, chunk)
			}
		}
	}
}

func TestMapChunksErrorsLowestChunkWins(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapChunksProgress(context.Background(), 64, 8, 4, func(_ context.Context, lo, hi int, out []int) error {
		if (lo/4)%2 == 1 { // every odd chunk fails; lowest is [4,8)
			return fmt.Errorf("chunk-level: %w", boom)
		}
		for i := range out {
			out[i] = lo + i
		}
		return nil
	}, nil)
	if err == nil || !errors.Is(err, boom) || err.Error() != "sweep: trial 4: chunk-level: boom" {
		t.Fatalf("err = %v, want sweep: trial 4: chunk-level: boom", err)
	}
	// A chunk that names its failing trial is reported by that trial, the
	// same at any worker count and chunk size.
	for _, workers := range []int{1, 2, 4} {
		for _, chunk := range []int{1, 7, 10, 0} {
			_, err = MapChunksProgress(context.Background(), 64, workers, chunk, func(_ context.Context, lo, hi int, out []int) error {
				for i := lo; i < hi; i++ {
					if i >= 23 {
						return &TrialError{Trial: i, Err: boom}
					}
				}
				return nil
			}, nil)
			if err == nil || !errors.Is(err, boom) || err.Error() != "sweep: trial 23: boom" {
				t.Fatalf("workers=%d chunk=%d: err = %v, want sweep: trial 23: boom", workers, chunk, err)
			}
		}
	}
}

func TestMapChunksErrorCancelsRemaining(t *testing.T) {
	var started atomic.Int64
	_, err := MapChunksProgress(context.Background(), 10000, 2, 1, func(_ context.Context, lo, hi int, out []int) error {
		started.Add(1)
		if lo == 0 {
			return errors.New("early failure")
		}
		return nil
	}, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n == 10000 {
		t.Error("error did not stop the remaining chunks")
	}
}

func TestMapChunksContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := MapChunksProgress(ctx, 1_000_000, 2, 1, func(_ context.Context, lo, hi int, out []int) error {
			ran.Add(1)
			time.Sleep(50 * time.Microsecond)
			return nil
		}, nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	err := <-done
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 1_000_000 {
		t.Error("cancellation did not stop the sweep")
	}
}

// TestMapChunksSingleWorkerInline pins the one-worker schedule: every chunk
// runs on the calling goroutine, in order; a failure ends the run at the
// failing chunk and a cancellation before the next one.
func TestMapChunksSingleWorkerInline(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	_, err := MapChunksProgress(context.Background(), 50, 1, 10, func(_ context.Context, lo, hi int, out []int) error {
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("chunk [%d,%d) ran beside %d goroutines, want the caller's %d", lo, hi, n, before)
		}
		order = append(order, lo)
		if lo == 30 {
			return errors.New("boom")
		}
		return nil
	}, nil)
	if err == nil || err.Error() != "sweep: trial 30: boom" {
		t.Fatalf("err = %v, want sweep: trial 30: boom", err)
	}
	if !reflect.DeepEqual(order, []int{0, 10, 20, 30}) {
		t.Fatalf("chunks ran as %v, want [0 10 20 30]", order)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	order = nil
	_, err = MapChunksProgress(ctx, 50, 1, 10, func(_ context.Context, lo, hi int, out []int) error {
		order = append(order, lo)
		if lo == 20 {
			cancel()
		}
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(order, []int{0, 10, 20}) {
		t.Fatalf("chunks ran as %v after cancelling in [20,30), want [0 10 20]", order)
	}
}

func TestMapChunksEdgeCases(t *testing.T) {
	if _, err := MapChunksProgress[int](context.Background(), -1, 1, 1, func(context.Context, int, int, []int) error { return nil }, nil); err == nil {
		t.Error("negative trial count should fail")
	}
	if _, err := MapChunksProgress[int](context.Background(), 1, 1, 1, nil, nil); err == nil {
		t.Error("nil fn should fail")
	}
	out, err := MapChunksProgress(context.Background(), 0, 4, 8, func(context.Context, int, int, []int) error { return nil }, nil)
	if err != nil || out == nil || len(out) != 0 {
		t.Errorf("empty sweep: %v, %v", out, err)
	}
	// A chunk larger than n collapses to one call covering [0, n).
	calls := 0
	out2, err := MapChunksProgress(context.Background(), 3, 4, 100, func(_ context.Context, lo, hi int, o []int) error {
		calls++
		if lo != 0 || hi != 3 {
			t.Errorf("range [%d,%d), want [0,3)", lo, hi)
		}
		for i := range o {
			o[i] = 7
		}
		return nil
	}, nil)
	if err != nil || calls != 1 || len(out2) != 3 {
		t.Errorf("oversized chunk: calls=%d out=%v err=%v", calls, out2, err)
	}
	// nil context is tolerated.
	if _, err := MapChunksProgress(nil, 3, 2, 1, func(context.Context, int, int, []int) error { return nil }, nil); err != nil { //nolint:staticcheck
		t.Errorf("nil ctx: %v", err)
	}
}
