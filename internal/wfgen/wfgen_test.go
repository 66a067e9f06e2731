package wfgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"wroofline/internal/machine"
	"wroofline/internal/sim"
	"wroofline/internal/units"
)

// parseSpec strictly decodes and validates a generator spec the way a
// corpus template is read: unknown fields are errors.
func parseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("wfgen: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Every family's generated DAG matches its closed-form shape — task count,
// levels and widest level — at a few hand-picked sizes (the property suite
// covers the randomized space).
func TestFamilyShapes(t *testing.T) {
	for _, tc := range []struct {
		family                string
		width, depth          int
		tasks, levels, widest int
	}{
		{"chain", 1, 7, 7, 7, 1},
		{"fanout", 16, 1, 18, 3, 16},
		{"diamond", 5, 3, 21, 9, 5},
		{"montage", 4, 1, 16, 8, 4},
		{"epigenomics", 3, 4, 16, 8, 3},
		{"bag", 8, 5, 8, 1, 8},
		{"mapreduce", 4, 3, 15, 6, 4},
		{"mapreduce", 50, 4, 204, 8, 50},
		{"scatter", 5, 3, 22, 7, 8},
		{"scatter", 1, 1, 4, 3, 2},
	} {
		spec := &Spec{Family: tc.family, Width: tc.width, Depth: tc.depth, Seed: 1}
		shape, err := spec.Shape()
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if shape.Tasks != tc.tasks || shape.Levels != tc.levels {
			t.Errorf("%s shape = %+v, want tasks=%d levels=%d", tc.family, shape, tc.tasks, tc.levels)
		}
		wf, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if got := wf.TotalTasks(); got != tc.tasks {
			t.Errorf("%s tasks = %d, want %d", tc.family, got, tc.tasks)
		}
		levels, err := wf.Graph().CriticalPathLength()
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if levels != tc.levels {
			t.Errorf("%s levels = %d, want %d", tc.family, levels, tc.levels)
		}
		if width, err := wf.Graph().Width(); err != nil || width != tc.widest || shape.Width != tc.widest {
			t.Errorf("%s widest level = %d (%v), shape says %d, want %d", tc.family, width, err, shape.Width, tc.widest)
		}
	}
}

// Every family simulates with the makespan its structure implies: each task
// is 1 s of compute at the Perlmutter CPU node peak and nothing else, the
// partition has nodes for every task at once, so the makespan is exactly
// the critical-path length in levels.
func TestCatalogSimulates(t *testing.T) {
	pm := machine.Perlmutter()
	for _, fam := range allFamilies() {
		spec := &Spec{Family: fam, Width: 4, Depth: 3, Flops: "5 TFLOP", Mem: "0", Net: "0", FS: "0"}
		shape, err := spec.Shape()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		wf, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		res, err := sim.Run(wf, nil, sim.Config{Machine: pm})
		if err != nil {
			t.Errorf("%s: %v", fam, err)
			continue
		}
		if want := float64(shape.Levels); res.Makespan < want-1e-9 || res.Makespan > want+1e-9 {
			t.Errorf("%s: makespan %v, want %v (critical path)", fam, res.Makespan, want)
		}
	}
}

// CV 0 generates exactly the spec means, no randomness consumed.
func TestConstantWork(t *testing.T) {
	wf, err := Generate(&Spec{Family: "fanout", Width: 3, Seed: 9,
		Flops: "2 TFLOP", Mem: "100 GB", Net: "5 GB", FS: "20 GB"})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range wf.Tasks() {
		if task.Work.Flops != 2*units.TFLOP {
			t.Errorf("task %s flops = %v", task.ID, task.Work.Flops)
		}
		if task.Work.FSBytes != 20*units.GB {
			t.Errorf("task %s fs = %v", task.ID, task.Work.FSBytes)
		}
	}
}

// A positive CV preserves the mean approximately and varies tasks; payloads
// land on both edge endpoints.
func TestVariedWorkAndPayloads(t *testing.T) {
	wf, err := Generate(&Spec{Family: "fanout", Width: 64, Seed: 3, CV: 0.5,
		Flops: "1 TFLOP", Payload: "4 GB"})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	distinct := map[units.Flops]bool{}
	for _, task := range wf.Tasks() {
		sum += float64(task.Work.Flops)
		distinct[task.Work.Flops] = true
	}
	mean := sum / float64(wf.TotalTasks())
	if mean < 0.6e12 || mean > 1.6e12 {
		t.Errorf("mean flops = %v, want ~1e12", mean)
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct flop values; CV should vary tasks", len(distinct))
	}
	// The source has Width outgoing payload edges: its FSBytes must exceed
	// the 10 GB per-task default by roughly Width x 4 GB.
	src, err := wf.Task("source")
	if err != nil {
		t.Fatal(err)
	}
	if src.Work.FSBytes < 100*units.GB {
		t.Errorf("source FSBytes = %v, want payload-dominated", src.Work.FSBytes)
	}
	work, err := wf.Task("work0000")
	if err != nil {
		t.Fatal(err)
	}
	if work.Work.FSBytes <= 0 {
		t.Errorf("worker FSBytes = %v, want positive", work.Work.FSBytes)
	}
}

func TestSpecErrors(t *testing.T) {
	for _, tc := range []struct{ name, spec, want string }{
		{"bad json", `{`, "decode spec"},
		{"unknown field", `{"family":"chain","bogus":1}`, "bogus"},
		{"unknown family", `{"family":"butterfly"}`, "unknown family"},
		{"negative width", `{"family":"fanout","width":-2}`, "width"},
		{"montage width 1", `{"family":"montage","width":1}`, "montage"},
		{"bad units", `{"family":"chain","flops":"5 parsecs"}`, "flops"},
		{"huge", `{"family":"diamond","width":100000,"depth":100000}`, "cap"},
		{"overflow width", `{"family":"fanout","width":9223372036854775806}`, "width"},
		{"overflow product", `{"family":"epigenomics","width":4294967296,"depth":4294967296}`, "width"},
		{"bad cv", `{"family":"chain","cv":9}`, "cv"},
		{"unknown family lists all", `{"family":"pipeline"}`, "bag mapreduce scatter"},
		{"bag over cap", `{"family":"bag","width":1000001}`, "width"},
		{"mapreduce over cap", `{"family":"mapreduce","width":1000000,"depth":2}`, "cap"},
		{"scatter depth 19", `{"family":"scatter","depth":19}`, "cap"},
		{"scatter depth 64", `{"family":"scatter","depth":64}`, "cap"},
		{"scatter overflow depth", `{"family":"scatter","depth":4294967296}`, "depth"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseSpec([]byte(tc.spec))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Specs round-trip through JSON without drift: what parseSpec accepts,
// Marshal re-emits equivalently.
func TestSpecRoundTrip(t *testing.T) {
	in := `{"family":"epigenomics","seed":42,"width":8,"depth":5,"cv":0.3,"payload":"1 GB"}`
	s, err := parseSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := parseSpec(enc)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if *s != *s2 {
		t.Errorf("round trip drifted: %+v vs %+v", s, s2)
	}
}

// taskID and taskID2 must render exactly what the %04d verb renders, past
// four digits too, for every ID prefix the families use, in one allocation.
func TestTaskIDMatchesSprintf(t *testing.T) {
	for _, prefix := range []string{"t", "work", "split", "merge", "project", "diff", "background", "task", "reduce"} {
		for i := 0; i <= 12000; i++ {
			if got, want := taskID(prefix, i), fmt.Sprintf(prefix+"%04d", i); got != want {
				t.Fatalf("taskID(%q, %d) = %q, want %q", prefix, i, got, want)
			}
		}
	}
	edges := []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 12000}
	for _, f := range []struct{ prefix, sep string }{{"branch", "_"}, {"lane", "_s"}, {"map", "_"}, {"scatter", "_"}, {"gather", "_"}} {
		for i := 0; i <= 12000; i++ {
			for _, j := range edges {
				for _, ij := range [][2]int{{i, j}, {j, i}} {
					got := taskID2(f.prefix, ij[0], f.sep, ij[1])
					if want := fmt.Sprintf(f.prefix+"%04d"+f.sep+"%04d", ij[0], ij[1]); got != want {
						t.Fatalf("taskID2(%q, %d, %q, %d) = %q, want %q", f.prefix, ij[0], f.sep, ij[1], got, want)
					}
				}
			}
		}
	}
	var sink string
	if a := testing.AllocsPerRun(100, func() { sink = taskID("background", 12000) }); a != 1 {
		t.Errorf("taskID allocates %v times, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink = taskID2("branch", 10000, "_", 12000) }); a != 1 {
		t.Errorf("taskID2 allocates %v times, want 1", a)
	}
	_ = sink
}

// TestValidateSplit pins the split of Validate: a shape error is Validate's
// error, and once the shape passes the remaining error comes from the work
// quantities alone, so it is the same for every family, width and depth.
func TestValidateSplit(t *testing.T) {
	quantities := []Spec{
		{}, {Flops: "5 parsecs"}, {Mem: "lots"}, {Net: "-"}, {FS: "1 XB"},
		{Payload: "2 furlongs"}, {Flops: "0", Mem: "0", Net: "0", FS: "0", Payload: "0"},
	}
	shapes := []Spec{
		{Family: "chain"}, {Family: "montage", Width: 1}, {Family: "butterfly"},
		{Family: "fanout", Width: -2}, {Family: "scatter", Depth: 19},
		{Family: "epigenomics", Width: 7, Depth: 2}, {Family: "bag", NodesPerTask: -1},
		{Family: "diamond", CV: 9},
	}
	want := map[int]string{} // quantity case -> error once the shape passes
	for qi, q := range quantities {
		for _, sh := range shapes {
			s := q
			s.Family, s.Width, s.Depth, s.NodesPerTask, s.CV = sh.Family, sh.Width, sh.Depth, sh.NodesPerTask, sh.CV
			full, shape := fmt.Sprint(s.Validate()), s.ValidateShape()
			if shape != nil {
				if full != shape.Error() {
					t.Errorf("%+v: Validate %q, ValidateShape %q", s, full, shape)
				}
				continue
			}
			if prev, ok := want[qi]; ok && prev != full {
				t.Errorf("%+v: Validate %q depends on the shape (another shape gave %q)", s, full, prev)
			}
			want[qi] = full
		}
	}
}
