package wfgen

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the checked-in golden digests.
var update = flag.Bool("update", false, "rewrite testdata golden files")

// goldenSpecs spans every family across widths (up to 12000), depths,
// variation, payload, node counts, zero work components and seeds. The
// families accepted by name only come last, so their digests append to the
// default families' lines.
func goldenSpecs() []Spec {
	var specs []Spec
	family := func(fam string) {
		for _, v := range []struct {
			width, depth int
			cv           float64
			payload      string
		}{
			{0, 0, 0, ""},
			{6, 3, 0.4, "1 GB"},
			{5, 3, 0, "512 MB"},
			{8, 4, 1.2, ""},
			{3, 1, 4, "2 GB"},
			{13, 5, 0.4, "0"},
			{2, 2, 0.7, "64 MB"},
		} {
			specs = append(specs, Spec{Family: fam, Seed: uint64(len(specs)) * 7919,
				Width: v.width, Depth: v.depth, CV: v.cv, Payload: v.payload})
		}
		specs = append(specs,
			Spec{Family: fam, Seed: 3, Width: 4, Depth: 3, NodesPerTask: 4, Net: "20 GB", CV: 0.3, Payload: "1 GB"},
			Spec{Family: fam, Seed: 9, Width: 5, Depth: 2, Flops: "0", Mem: "0", FS: "0", CV: 1.2, Partition: "gpu"},
		)
	}
	all := allFamilies()
	for _, fam := range all[:len(Families())] {
		family(fam)
	}
	specs = append(specs,
		Spec{Family: "montage", Seed: 1, Width: 12000, CV: 0.4, Payload: "1 GB"},
		Spec{Family: "fanout", Seed: 2, Width: 12000, CV: 1.2},
		Spec{Family: "diamond", Seed: 4, Width: 3000, Depth: 4, CV: 0.4, Payload: "256 MB"},
		Spec{Family: "epigenomics", Seed: 5, Width: 2500, Depth: 4, Payload: "1 GB"},
		Spec{Family: "chain", Seed: 6, Depth: 12000, CV: 0.4, Payload: "1 GB"},
	)
	for _, fam := range all[len(Families()):] {
		family(fam)
	}
	specs = append(specs,
		Spec{Family: "bag", Seed: 7, Width: 12000, CV: 0.4},
		Spec{Family: "mapreduce", Seed: 8, Width: 3000, Depth: 4, CV: 1.2, Payload: "1 GB"},
		Spec{Family: "scatter", Seed: 10, Depth: 12, CV: 0.4, Payload: "256 MB"},
	)
	return specs
}

// TestGenerateGolden pins the generator's output bit for bit: the SHA-256
// of each golden spec's workflow JSON (names, work vectors and edges) must
// match testdata/generate.golden. Run `go test ./internal/wfgen -run
// TestGenerateGolden -update` after an intentional change and review why
// the digests moved.
func TestGenerateGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range goldenSpecs() {
		wf, err := Generate(&s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		data, err := json.Marshal(wf)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%x %s\n", sha256.Sum256(data), spec)
	}
	golden := filepath.Join("testdata", "generate.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digests, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest drifted:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
