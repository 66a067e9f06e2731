package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the checked-in golden transcript.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestGoldenTranscript pins the example's full output: the roofline report,
// the pipeline analysis, the what-if table and the contention Monte Carlo
// summary and deadline estimate. Every step is deterministic (the Monte
// Carlo is seeded), so any drift in the models, the simulator or the
// ensemble summary shows up as a diff. Run `go test ./examples/custom
// -update` after an intentional change and review the diff.
func TestGoldenTranscript(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "custom.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden (%d bytes now, %d in golden); run with -update if intentional\ngot:\n%s",
			len(got), len(want), got)
	}
}
