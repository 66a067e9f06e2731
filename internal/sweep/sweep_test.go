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

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		s := TrialSeed(7, i)
		if s == 0 {
			t.Fatalf("trial %d: zero seed would wedge xorshift", i)
		}
		if s != TrialSeed(7, i) {
			t.Fatalf("trial %d: seed not deterministic", i)
		}
		if seen[s] {
			t.Fatalf("trial %d: seed collision", i)
		}
		seen[s] = true
	}
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Error("different base seeds must give different trial seeds")
	}
}

func TestMapOrderAndValues(t *testing.T) {
	got, err := Map(context.Background(), 100, 8, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

// The core determinism guarantee: identical results at worker counts 1, 4,
// and GOMAXPROCS even when trials draw per-trial random values and finish
// out of order.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(context.Background(), 500, workers, func(_ context.Context, i int) (float64, error) {
			// Stagger completion order.
			if i%7 == 0 {
				time.Sleep(time.Microsecond)
			}
			return float64(TrialSeed(99, i)%1000) / 7, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	w1 := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if !reflect.DeepEqual(w1, run(workers)) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
}

func TestMapErrorsLowestIndexWins(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), 64, 8, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 { // every odd trial fails; lowest is 1
			return 0, fmt.Errorf("trial-level: %w", boom)
		}
		return i, nil
	})
	if err == nil || !errors.Is(err, boom) || err.Error() != "sweep: trial 1: trial-level: boom" {
		t.Fatalf("err = %v, want sweep: trial 1: trial-level: boom", err)
	}
	_, err = Map(context.Background(), 64, 1, func(_ context.Context, i int) (int, error) {
		if i >= 5 {
			return 0, boom
		}
		return i, nil
	})
	if err == nil || err.Error() != "sweep: trial 5: boom" {
		t.Fatalf("err = %v, want sweep: trial 5: boom", err)
	}
}

func TestMapErrorCancelsRemaining(t *testing.T) {
	var started atomic.Int64
	_, err := Map(context.Background(), 10000, 2, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n == 10000 {
		t.Error("error did not stop the remaining trials")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, 1_000_000, 2, func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			time.Sleep(50 * time.Microsecond)
			return i, nil
		})
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

func TestMapEdgeCases(t *testing.T) {
	if _, err := Map[int](context.Background(), -1, 1, func(context.Context, int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative trial count should fail")
	}
	if _, err := Map[int](context.Background(), 1, 1, nil); err == nil {
		t.Error("nil fn should fail")
	}
	out, err := Map(context.Background(), 0, 4, func(context.Context, int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty sweep: %v, %v", out, err)
	}
	// nil context is tolerated.
	if _, err := Map(nil, 3, 2, func(context.Context, int) (int, error) { return 1, nil }); err != nil { //nolint:staticcheck
		t.Errorf("nil ctx: %v", err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Error("non-positive requests should default to GOMAXPROCS")
	}
	if Workers(5) != 5 {
		t.Error("positive requests pass through")
	}
}

func TestGridHelpers(t *testing.T) {
	size, err := GridSize([]int{3, 2, 4})
	if err != nil || size != 24 {
		t.Fatalf("size = %d, %v", size, err)
	}
	if _, err := GridSize([]int{3, 0}); err == nil {
		t.Error("zero dimension should fail")
	}
	// Row-major: last dimension varies fastest.
	coords, err := GridCoords([]int{3, 2, 4}, 0)
	if err != nil || !reflect.DeepEqual(coords, []int{0, 0, 0}) {
		t.Fatalf("cell 0 = %v, %v", coords, err)
	}
	coords, _ = GridCoords([]int{3, 2, 4}, 5)
	if !reflect.DeepEqual(coords, []int{0, 1, 1}) {
		t.Fatalf("cell 5 = %v", coords)
	}
	coords, _ = GridCoords([]int{3, 2, 4}, 23)
	if !reflect.DeepEqual(coords, []int{2, 1, 3}) {
		t.Fatalf("cell 23 = %v", coords)
	}
	if _, err := GridCoords([]int{2}, 2); err == nil {
		t.Error("out-of-range cell should fail")
	}
	// Round trip: every flat index maps to unique coords.
	seen := map[string]bool{}
	for i := 0; i < 24; i++ {
		c, err := GridCoords([]int{3, 2, 4}, i)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(c)
		if seen[key] {
			t.Fatalf("duplicate coords %v", c)
		}
		seen[key] = true
	}
}
