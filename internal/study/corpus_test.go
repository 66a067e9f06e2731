package study

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"wroofline/internal/wfgen"
)

func corpusSpec(workers int) *Spec {
	return &Spec{
		Kind: "corpus", Machine: "perlmutter-numa", Count: 1000, Seed: 11, Workers: workers,
		Template: &wfgen.Spec{Width: 6, Depth: 3, CV: 0.4, Payload: "512 MB"},
	}
}

// TestCorpusStudyDeterministicAcrossWorkers is the headline acceptance check:
// a 1,000-scenario generated corpus on the NUMA machine model runs end to end
// and produces byte-identical tables at any worker count.
func TestCorpusStudyDeterministicAcrossWorkers(t *testing.T) {
	one, err := RunStreamCached(context.Background(), corpusSpec(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunStreamCached(context.Background(), corpusSpec(8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderTables(t, one), renderTables(t, many); a != b {
		t.Fatalf("worker count changed the result bytes:\n%s\nvs\n%s", a, b)
	}
	if len(one) != 3 {
		t.Fatalf("corpus study produced %d tables, want 3", len(one))
	}
	if !strings.Contains(one[0].Title, "Perlmutter-NUMA") || !strings.Contains(one[0].Title, "1000 scenarios") {
		t.Errorf("per-family table title = %q", one[0].Title)
	}
	// All five families cycle through 1000 scenarios: 200 each.
	if got, want := len(tableRows(t, one[0])), len(wfgen.Families()); got != want {
		t.Errorf("per-family table has %d rows, want %d", got, want)
	}
}

// TestCorpusStudyRidgeline runs a corpus with network-heavy multi-node tasks
// on the Ridgeline machine, whose bisection ceiling and shared fabric link
// must flow through both the analysis and the simulation deterministically.
func TestCorpusStudyRidgeline(t *testing.T) {
	spec := func(workers int) *Spec {
		return &Spec{
			Kind: "corpus", Machine: "ridgeline", Count: 60, Seed: 3, Workers: workers,
			Families: []string{"fanout", "epigenomics"},
			Template: &wfgen.Spec{Width: 8, Depth: 3, NodesPerTask: 4,
				Net: "20 GB", CV: 0.3, Payload: "1 GB"},
		}
	}
	one, err := RunStreamCached(context.Background(), spec(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunStreamCached(context.Background(), spec(7), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderTables(t, one), renderTables(t, many); a != b {
		t.Fatalf("worker count changed the result bytes:\n%s\nvs\n%s", a, b)
	}
	if got := renderTables(t, one); !strings.Contains(got, "Ridgeline") {
		t.Errorf("ridgeline corpus output does not mention the machine: %s", got)
	}
}

func TestCorpusStudyValidation(t *testing.T) {
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "corpus"}, nil, nil); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "corpus", Count: 4, Machine: "summit"}, nil, nil); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "corpus", Count: 4,
		Families: []string{"butterfly"}}, nil, nil); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "corpus", Count: 4,
		Template: &wfgen.Spec{CV: 9}}, nil, nil); err == nil {
		t.Error("invalid template accepted")
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "corpus", Count: 4,
		Template: &wfgen.Spec{Flops: "5 parsecs"}}, nil, nil); err == nil {
		t.Error("unparseable template unit accepted")
	}
}

func TestCorpusSpecCanonicalCoversTemplate(t *testing.T) {
	a, err := corpusSpec(0).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b := corpusSpec(0)
	b.Template.Width = 7
	bc, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(bc) {
		t.Fatal("template width change did not change the canonical bytes")
	}
	c := corpusSpec(0)
	c.Seed = 12
	cc, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(cc) {
		t.Fatal("seed change did not change the canonical bytes")
	}
	w, err := corpusSpec(9).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(w) {
		t.Fatal("worker count leaked into the canonical bytes")
	}
}

func TestCorpusExampleRoundTrips(t *testing.T) {
	ex, err := Example("corpus")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("example does not re-parse strictly: %v", err)
	}
	if spec.Kind != "corpus" || spec.Template == nil {
		t.Fatalf("round-tripped example = %+v", spec)
	}
	// The template must actually run.
	spec.Count = 25
	if _, err := RunStreamCached(context.Background(), spec, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusTemplateErrorOrder pins which error a bad corpus template
// reports now that only family 0 checks the work quantities: the first
// family whose full Validate fails, in the request's family order.
func TestCorpusTemplateErrorOrder(t *testing.T) {
	for _, tc := range []struct {
		families []string
		tmpl     wfgen.Spec
	}{
		{[]string{"chain", "montage"}, wfgen.Spec{Width: 1, Flops: "5 parsecs"}},
		{[]string{"montage", "chain"}, wfgen.Spec{Width: 1, Flops: "5 parsecs"}},
		{[]string{"chain", "montage"}, wfgen.Spec{Width: 1}},
		{[]string{"fanout", "butterfly"}, wfgen.Spec{Payload: "2 furlongs"}},
		{[]string{"fanout", "butterfly"}, wfgen.Spec{}},
		{[]string{"chain", "scatter"}, wfgen.Spec{Depth: 19, FS: "1 XB"}},
		{nil, wfgen.Spec{Mem: "lots"}},
	} {
		families := tc.families
		if families == nil {
			families = wfgen.Families()
		}
		var want error
		for _, fam := range families {
			s := tc.tmpl
			s.Family = fam
			if want = s.Validate(); want != nil {
				break
			}
		}
		tmpl := tc.tmpl
		_, err := RunStreamCached(context.Background(), &Spec{Kind: "corpus", Machine: "perlmutter",
			Count: 4, Families: tc.families, Template: &tmpl}, nil, nil)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("families %v template %+v: err %v, want %v", tc.families, tc.tmpl, err, want)
		}
	}
}

// TestCorpusDefaultPartition: a corpus whose template names no partition
// runs on the survey's default, so a machine without a cpu partition uses
// its only one, byte for byte as if the template had named it.
func TestCorpusDefaultPartition(t *testing.T) {
	run := func(partition string) string {
		spec := &Spec{Kind: "corpus", Machine: "cori", Count: 10,
			Template: &wfgen.Spec{Width: 4, Depth: 2, Partition: partition}}
		tables, err := RunStreamCached(context.Background(), spec, nil, nil)
		if err != nil {
			t.Fatalf("partition %q: %v", partition, err)
		}
		return renderTables(t, tables)
	}
	if a, b := run(""), run("haswell"); a != b {
		t.Errorf("default partition changed the bytes:\n%s\nvs\n%s", a, b)
	}
}
