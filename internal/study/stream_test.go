package study

import (
	"context"
	"fmt"
	"testing"

	"wroofline/internal/failure"
	"wroofline/internal/wfgen"
)

// streamSpecs covers every streaming study kind with an ensemble large
// enough that the throttle, one snapshot per 64 or more trials, emits
// several snapshots on one worker (TestRunStreamDifferential asserts at
// least 3).
func streamSpecs() map[string]*Spec {
	return map[string]*Spec{
		"montecarlo": {
			Kind: "montecarlo", Case: "lcls-cori", Trials: 1024, Seed: 9,
			Batch: 16,
			Sampler: &SamplerSpec{Model: "twostate", Base: "1 GB/s",
				Degraded: "0.2 GB/s", PBad: 0.4},
		},
		"failures": {
			Kind: "failures", Case: "lcls-cori", Trials: 512, Seed: 7,
			Batch: 8,
			Failure: &failure.Spec{
				TaskFailProb: 0.05,
				RestageRate:  "1 GB/s",
				Retry:        &failure.RetrySpec{MaxAttempts: 5, BackoffSeconds: 1, BackoffFactor: 2},
			},
		},
		"corpus": {
			Kind: "corpus", Machine: "perlmutter-numa", Count: 512, Seed: 11,
			Batch:    8,
			Template: &wfgen.Spec{Width: 5, Depth: 3, CV: 0.4, Payload: "512 MB"},
		},
	}
}

// TestRunStreamDifferential is the byte-identity contract behind streaming
// delivery: for every ensemble kind, RunStreamCached's final tables render to
// exactly the bytes Run produces, and the progress snapshots are strictly
// increasing prefixes that never reach the total (the final aggregate is
// the tables, not an event). One worker advances the frontier one chunk at
// a time, so it must stream at least 3 snapshots; on four, a worker
// descheduled while it holds a low chunk lets the frontier jump, and only
// the first snapshot (chunk 0 runs alone) is certain.
func TestRunStreamDifferential(t *testing.T) {
	for kind, spec := range streamSpecs() {
		t.Run(kind, func(t *testing.T) {
			want, err := RunStreamCached(context.Background(), spec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					spec.Workers = workers
					var events []Progress
					got, err := RunStreamCached(context.Background(), spec, nil, func(p Progress) {
						events = append(events, p)
					})
					if err != nil {
						t.Fatal(err)
					}
					if a, b := renderTables(t, got), renderTables(t, want); a != b {
						t.Fatalf("streamed tables differ from buffered:\n%s\nvs\n%s", a, b)
					}
					total := spec.Trials
					if spec.Kind == "corpus" {
						total = spec.Count
					}
					floor := 1
					if workers == 1 {
						floor = 3
					}
					if len(events) < floor {
						t.Fatalf("%d progress events over %d trials, want at least %d", len(events), total, floor)
					}
					for i, p := range events {
						if p.Total != total {
							t.Errorf("event %d: total = %d, want %d", i, p.Total, total)
						}
						if p.Done <= 0 || p.Done >= total {
							t.Errorf("event %d: done = %d, want in (0, %d)", i, p.Done, total)
						}
						if i > 0 && p.Done <= events[i-1].Done {
							t.Errorf("done not strictly increasing: %d then %d", events[i-1].Done, p.Done)
						}
						if p.Summary.N != p.Done {
							t.Errorf("event %d: summary over %d samples, done = %d", i, p.Summary.N, p.Done)
						}
						if p.Summary.Min > p.Summary.P50 || p.Summary.P50 > p.Summary.P99 || p.Summary.P99 > p.Summary.Max {
							t.Errorf("event %d: summary not ordered: %+v", i, p.Summary)
						}
					}
				})
			}
		})
	}
}

// TestRunStreamPrefixDeterminism pins the property that makes snapshots
// meaningful: because the prefix is always trials [0, done) under
// deterministic per-trial seeding, the same Done value carries the same
// Summary at any worker count or batch geometry.
func TestRunStreamPrefixDeterminism(t *testing.T) {
	collect := func(workers, batch int) map[int]Progress {
		spec := streamSpecs()["montecarlo"]
		spec.Workers, spec.Batch = workers, batch
		byDone := map[int]Progress{}
		if _, err := RunStreamCached(context.Background(), spec, nil, func(p Progress) {
			byDone[p.Done] = p
		}); err != nil {
			t.Fatal(err)
		}
		return byDone
	}
	a, b := collect(1, 16), collect(8, 16)
	common := 0
	for done, pa := range a {
		pb, ok := b[done]
		if !ok {
			continue
		}
		common++
		if pa.Summary != pb.Summary {
			t.Errorf("done=%d: summary differs across worker counts:\n%+v\nvs\n%+v",
				done, pa.Summary, pb.Summary)
		}
	}
	if common == 0 {
		t.Fatal("no common Done values across worker counts; cannot compare")
	}
}

// TestRunStreamNonEnsembleKinds checks grid and survey run through
// RunStreamCached without emitting (they have no trial frontier) and unknown
// kinds still fail.
func TestRunStreamNonEnsembleKinds(t *testing.T) {
	spec := &Spec{Kind: "grid", Case: "lcls-cori", P: 0.5,
		WallFactors: []float64{1, 2}}
	calls := 0
	tables, err := RunStreamCached(context.Background(), spec, nil, func(Progress) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Error("grid produced no tables")
	}
	if calls != 0 {
		t.Errorf("grid emitted %d progress events, want 0", calls)
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "quantum"}, nil, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestProgressSnapshotAllocFloor pins the snapshot path's reuse contract:
// progressFn reserves the summarizer for its largest snapshot, so after the
// first snapshot every later one — each over a longer prefix — allocates
// nothing.
func TestProgressSnapshotAllocFloor(t *testing.T) {
	const total = 64 * 256
	makespans := make([]float64, total)
	for i := range makespans {
		makespans[i] = float64((i*7919)%997) + 0.5
	}
	var last Progress
	snapshot := progressFn(total, func(p Progress) { last = p }, func(v float64) (float64, bool) { return v, true })
	done := 256
	snapshot(done, makespans[:done])
	allocs := testing.AllocsPerRun(50, func() {
		done += 256
		snapshot(done, makespans[:done])
	})
	if allocs != 0 {
		t.Errorf("progress snapshots allocate %.1f objects each after the first, want 0", allocs)
	}
	if last.Done != done || last.Summary.N != done {
		t.Fatalf("last snapshot = %+v; want done %d (the throttle skipped snapshots)", last, done)
	}
}

// TestRunStreamFrameBudget pins the throttle's frame budget on the
// progressFn path every ensemble runner streams through: whatever the
// frontier's stride (one trial, chunks of 8, or one chunk covering the
// run), the first advance below total fires, the completed ensemble never
// does, at most 64 frames fire, and consecutive frames stand at least
// max(total/64, 64) trials apart — so an ensemble of 64 trials or fewer
// streams exactly one frame. 4159 is not a multiple of 64: a step of
// total/64 rounded down would give it 65 frames.
func TestRunStreamFrameBudget(t *testing.T) {
	for _, total := range []int{1, 2, 30, 63, 64, 65, 256, 4096, 4159, 65536, 400000} {
		makespans := make([]float64, total)
		for i := range makespans {
			makespans[i] = float64(i%97) + 1
		}
		for _, stride := range []int{1, 8, total} {
			var frames []int
			snapshot := progressFn(total, func(p Progress) {
				if p.Total != total {
					t.Errorf("total %d: frame total = %d", total, p.Total)
				}
				frames = append(frames, p.Done)
			}, func(v float64) (float64, bool) { return v, true })
			first := min(stride, total)
			for done := first; ; done = min(done+stride, total) {
				snapshot(done, makespans[:done])
				if done == total {
					break
				}
			}
			gap := max(total/64, minProgressStep)
			switch {
			case first < total && (len(frames) == 0 || frames[0] != first):
				t.Errorf("total %d stride %d: frames %v, want the first advance %d to fire", total, stride, frames, first)
			case first == total && len(frames) != 0:
				t.Errorf("total %d stride %d: frames %v for a single advance to the total", total, stride, frames)
			case len(frames) > 64:
				t.Errorf("total %d stride %d: %d frames, want at most 64", total, stride, len(frames))
			}
			for i, d := range frames {
				if d >= total {
					t.Errorf("total %d stride %d: frame at done %d, the total fires no frame", total, stride, d)
				}
				if i > 0 && d-frames[i-1] < gap {
					t.Errorf("total %d stride %d: frames at %d then %d, want at least %d apart", total, stride, frames[i-1], d, gap)
				}
			}
		}
	}
}
