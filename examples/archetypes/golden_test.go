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

// TestGoldenTranscript pins the example's full output: each shape's task
// count, width, critical-path length, model bound, simulated throughput
// and makespan, and binding resource. Every step is deterministic, so any
// drift in the shape generators, the model or the simulator shows up as a
// diff. Run `go test ./examples/archetypes -update` after an intentional
// change and review the diff.
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

	golden := filepath.Join("testdata", "archetypes.golden")
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
