package study

import (
	"bytes"
	"context"
	"testing"

	"wroofline/internal/failure"
	"wroofline/internal/machine"
	"wroofline/internal/sim"
	"wroofline/internal/sweep"
	"wroofline/internal/wfgen"
)

// Batch is a pure performance knob: every batched ensemble must render
// byte-identical tables at any worker count and any batch size, because
// per-trial seeding depends only on (seed, trial index), never on chunk
// geometry, and the batch executor is bit-identical to per-trial runs.
func TestStudyBatchInvariance(t *testing.T) {
	kinds := map[string]func(workers, batch int) *Spec{
		"montecarlo": func(workers, batch int) *Spec {
			return &Spec{
				Kind: "montecarlo", Case: "lcls-cori", Trials: 64, Seed: 7,
				Streams: 5, Workers: workers, Batch: batch,
				Sampler: &SamplerSpec{Model: "twostate", Base: "1 GB/s", Degraded: "0.2 GB/s", PBad: 0.4},
			}
		},
		"failures": func(workers, batch int) *Spec {
			return &Spec{
				Kind: "failures", Case: "lcls-cori", Trials: 12, Seed: 7,
				Workers: workers, Batch: batch,
				Failure: &failure.Spec{
					TaskFailProb: 0.05,
					RestageRate:  "1 GB/s",
					Retry:        &failure.RetrySpec{MaxAttempts: 5, BackoffSeconds: 1, BackoffFactor: 2},
				},
			}
		},
		"corpus": func(workers, batch int) *Spec {
			return &Spec{
				Kind: "corpus", Machine: "perlmutter-numa", Count: 40, Seed: 11,
				Workers: workers, Batch: batch,
				Template: &wfgen.Spec{Width: 4, Depth: 2, CV: 0.4, FS: "0", Payload: "0"},
			}
		},
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			baseTables, err := RunStreamCached(context.Background(), mk(1, 1), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			base := renderTables(t, baseTables)
			for _, workers := range []int{1, 4} {
				for _, batch := range []int{1, 3, 100000, 0} { // 0 = auto
					tables, err := RunStreamCached(context.Background(), mk(workers, batch), nil, nil)
					if err != nil {
						t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
					}
					if got := renderTables(t, tables); got != base {
						t.Fatalf("workers=%d batch=%d changed the result bytes:\n%s\nvs\n%s",
							workers, batch, got, base)
					}
				}
			}
		})
	}
}

// corpusAnalyticRate regenerates the corpus sweep's scenarios (same family
// cycling, same per-scenario seeding) and reports what fraction of the
// compiled plans the analytic fast path accepts.
func corpusAnalyticRate(t *testing.T, count int, seed uint64, tmpl wfgen.Spec) float64 {
	t.Helper()
	m, err := machine.ByName("perlmutter-numa")
	if err != nil {
		t.Fatal(err)
	}
	families := wfgen.Families()
	hits := 0
	for i := 0; i < count; i++ {
		s := tmpl
		s.Family = families[i%len(families)]
		s.Seed = sweep.TrialSeed(seed, i)
		wf, err := wfgen.Generate(&s)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		plan, err := sim.Compile(wf, nil, sim.Config{Machine: m})
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if plan.Analytic() {
			hits++
		}
	}
	return float64(hits) / float64(count)
}

// TestCorpusAnalyticFastPathRate pins the EXPERIMENTS.md walkthrough: on the
// 1,000-scenario corpus, a contention-free template (no payload, no FS
// traffic) resolves every plan analytically, while the default 1 GB payload
// keeps every plan on the event loop (FS flows share a link).
func TestCorpusAnalyticFastPathRate(t *testing.T) {
	free := corpusAnalyticRate(t, 1000, 11, wfgen.Spec{Width: 8, Depth: 4, CV: 0.4, FS: "0", Payload: "0"})
	if free != 1 {
		t.Errorf("contention-free corpus analytic rate = %.3f, want 1.0", free)
	}
	heavy := corpusAnalyticRate(t, 1000, 11, wfgen.Spec{Width: 8, Depth: 4, CV: 0.4, Payload: "1 GB"})
	if heavy != 0 {
		t.Errorf("payload corpus analytic rate = %.3f, want 0 (FS flows disqualify)", heavy)
	}
	t.Logf("analytic fast-path hit rate: contention-free template %.0f%%, 1 GB payload template %.0f%%",
		free*100, heavy*100)
}

// The batch knob must normalize out of the content-addressable cache key,
// like the worker count: a batched and an unbatched spec hit the same
// cache entry in the analysis service.
func TestSpecCanonicalNormalizesBatch(t *testing.T) {
	a := &Spec{Kind: "corpus", Machine: "perlmutter", Count: 10, Seed: 1,
		Template: &wfgen.Spec{Width: 2, Depth: 2}}
	b := *a
	b.Workers = 8
	b.Batch = 256
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical bytes differ:\n%s\nvs\n%s", ca, cb)
	}
}
