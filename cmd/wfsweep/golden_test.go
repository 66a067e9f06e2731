package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the checked-in golden transcripts.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestGoldenCorpusTranscript pins the full rendered report for a small spec of
// every ensemble kind — generated-scenario corpora, Monte Carlo contention
// (both samplers), what-if grids, archetype surveys and failure ensembles —
// so any drift in the generator, the machine models, the roofline bound,
// the simulator, the sweep scheduler or the table formatting shows up as a
// diff against the checked-in transcript. Every kind is deterministic per
// seed at any worker count, which is what makes a golden possible at all:
// each case runs at one and two workers against the same golden. Run
// `go test ./cmd/wfsweep -update` after an intentional change and review
// the diff.
func TestGoldenCorpusTranscript(t *testing.T) {
	cases := []struct {
		name, spec string
	}{
		{"corpus-small", `{"kind": "corpus", "machine": "perlmutter-numa",
			"count": 20, "seed": 7,
			"template": {"width": 4, "depth": 3, "cv": 0.4, "payload": "512 MB"}}`},
		{"corpus-ridgeline", `{"kind": "corpus", "machine": "ridgeline",
			"count": 10, "seed": 3, "families": ["fanout", "epigenomics"],
			"template": {"width": 6, "depth": 3, "nodes_per_task": 4,
				"net": "20 GB", "cv": 0.3, "payload": "1 GB"}}`},
		// A batched corpus with no payload or FS traffic: every scenario's
		// plan is contention-free, so the batch executor serves each through
		// the analytic fast path. The transcript must be identical to an
		// unbatched run (the batch knob never changes bytes), so this golden
		// pins the analytic makespans against the event loop's.
		{"corpus-batched-analytic", `{"kind": "corpus", "machine": "perlmutter-numa",
			"count": 12, "seed": 9, "batch": 4,
			"template": {"width": 3, "depth": 2, "cv": 0.3, "fs": "0", "payload": "0"}}`},
		{"montecarlo-twostate", `{"kind": "montecarlo", "case": "lcls-cori",
			"trials": 200, "seed": 7, "streams": 5,
			"sampler": {"model": "twostate", "base": "1 GB/s",
				"degraded": "0.2 GB/s", "p_bad": 0.4}}`},
		{"montecarlo-lognormal", `{"kind": "montecarlo", "case": "lcls-cori",
			"trials": 150, "seed": 11, "streams": 2, "batch": 16,
			"sampler": {"model": "lognormal", "base": "2 GB/s",
				"mu": 0.2, "sigma": 0.6}}`},
		{"grid", `{"kind": "grid", "case": "lcls-cori", "p": 5,
			"resources": [{"resource": "filesystem", "factors": [1, 4]},
				{"resource": "memory", "factors": [1, 10]}],
			"wall_factors": [1, 2],
			"intra_task": [{"k": 1}, {"k": 2, "efficiency": 0.9}]}`},
		{"survey", `{"kind": "survey", "machine": "perlmutter",
			"partition": "cpu", "widths": [4, 8, 16], "depths": [2, 3],
			"nodes_per_task": 2, "work": {"flops": "5 TFLOP", "fs": "100 GB"}}`},
		{"failures", `{"kind": "failures", "case": "lcls-cori",
			"trials": 60, "seed": 7,
			"failure": {"task_fail_prob": 0.05, "restage_rate": "1 GB/s",
				"retry": {"max_attempts": 5, "backoff_seconds": 1, "backoff_factor": 2}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", tc.name+".golden")
			for _, workers := range []string{"1", "2"} {
				var out bytes.Buffer
				if err := run(context.Background(), []string{"-spec", "-", "-workers", workers},
					strings.NewReader(tc.spec), &out); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, golden, tc.name+" at -workers "+workers, out.Bytes())
			}
		})
	}
}

// checkGolden compares out with the golden file, or rewrites the file under
// -update.
func checkGolden(t *testing.T, golden, name string, out []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("%s output drifted from golden (%d bytes now, %d in golden); run with -update if intentional\ngot:\n%s",
			name, len(out), len(want), out)
	}
}
