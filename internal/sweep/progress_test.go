package sweep

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fillIdentity is the chunk body used across these tests: out[j] = lo+j,
// so any prefix is checkable by value.
func fillIdentity(_ context.Context, lo, hi int, out []int) error {
	for j := range out {
		out[j] = lo + j
	}
	return nil
}

// TestMapChunksProgressFrontier pins the progress contract across chunk
// geometries: done is strictly increasing, advances land on chunk
// boundaries (or n), the prefix below the frontier is fully written, and
// the final call reports the whole ensemble.
func TestMapChunksProgressFrontier(t *testing.T) {
	for _, tc := range []struct{ n, workers, chunk int }{
		{100, 4, 7},
		{100, 1, 100},
		{64, 8, 1},
		{1, 4, 32},
	} {
		t.Run(fmt.Sprintf("n=%d w=%d c=%d", tc.n, tc.workers, tc.chunk), func(t *testing.T) {
			var dones []int
			out, err := MapChunksProgress(context.Background(), tc.n, tc.workers, tc.chunk,
				fillIdentity, func(done int, prefix []int) {
					if len(prefix) != done {
						t.Errorf("prefix length %d != done %d", len(prefix), done)
					}
					for i, v := range prefix {
						if v != i {
							t.Fatalf("prefix[%d] = %d below the frontier (done=%d)", i, v, done)
						}
					}
					dones = append(dones, done)
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != tc.n {
				t.Fatalf("result length %d, want %d", len(out), tc.n)
			}
			if len(dones) == 0 {
				t.Fatal("no progress calls")
			}
			for i := 1; i < len(dones); i++ {
				if dones[i] <= dones[i-1] {
					t.Fatalf("done not strictly increasing: %v", dones)
				}
			}
			for _, d := range dones {
				if d%tc.chunk != 0 && d != tc.n {
					t.Errorf("done=%d is neither a chunk boundary (chunk=%d) nor n=%d", d, tc.chunk, tc.n)
				}
			}
			if last := dones[len(dones)-1]; last != tc.n {
				t.Errorf("final progress done = %d, want %d", last, tc.n)
			}
		})
	}
}

// TestMapChunksProgressFirstChunkFirst pins the time-to-first-result
// guarantee: even when chunk 0 is by far the slowest, the first progress
// call reports chunk 0's prefix, below n — racing workers never finish the
// rest first and jump the frontier from 0 to n in one step.
func TestMapChunksProgressFirstChunkFirst(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var dones []int
		_, err := MapChunksProgress(context.Background(), 64, workers, 8,
			func(ctx context.Context, lo, hi int, out []int) error {
				if lo == 0 {
					time.Sleep(20 * time.Millisecond)
				}
				return fillIdentity(ctx, lo, hi, out)
			},
			func(done int, _ []int) { dones = append(dones, done) })
		if err != nil {
			t.Fatal(err)
		}
		if len(dones) < 2 || dones[0] != 8 {
			t.Errorf("workers=%d: progress calls %v, want the first to report chunk 0 (8 of 64)",
				workers, dones)
		}
	}
}

// TestMapChunksProgressMatchesMapChunks is the byte-identity root: a run
// with a progress callback returns exactly what a run without one returns
// for the same seeded function, at several worker counts and chunk sizes.
func TestMapChunksProgressMatchesMapChunks(t *testing.T) {
	fn := func(_ context.Context, lo, hi int, out []float64) error {
		for j := range out {
			out[j] = float64(TrialSeed(42, lo+j) % 1000)
		}
		return nil
	}
	want, err := MapChunksProgress(context.Background(), 200, 1, 16, fn, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, chunk int }{{4, 7}, {8, 33}, {2, 200}} {
		got, err := MapChunksProgress(context.Background(), 200, tc.workers, tc.chunk, fn,
			func(int, []float64) {})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d chunk=%d: trial %d = %v, want %v",
					tc.workers, tc.chunk, i, got[i], want[i])
			}
		}
	}
}

// TestMapChunksProgressError checks a failing chunk surfaces its error and
// the frontier never reports past the failure.
func TestMapChunksProgressError(t *testing.T) {
	maxDone := 0
	_, err := MapChunksProgress(context.Background(), 100, 4, 10,
		func(_ context.Context, lo, hi int, out []int) error {
			if lo >= 50 {
				return fmt.Errorf("boom at %d", lo)
			}
			return fillIdentity(nil, lo, hi, out)
		},
		func(done int, _ []int) {
			if done > maxDone {
				maxDone = done
			}
		})
	if err == nil {
		t.Fatal("failing chunk did not surface an error")
	}
	if maxDone > 50 {
		t.Errorf("frontier advanced to %d past the failing chunk at 50", maxDone)
	}
}
