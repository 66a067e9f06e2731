package workflow

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"wroofline/internal/units"
)

func lcls(t *testing.T) *Workflow {
	t.Helper()
	w := New("LCLS", "haswell")
	w.Targets = Targets{MakespanSeconds: 600, ThroughputTPS: 6.0 / 600.0}
	for _, id := range []string{"A", "B", "C", "D", "E"} {
		err := w.AddTask(&Task{
			ID:    id,
			Nodes: 32,
			Procs: 1024,
			Work: Work{
				MemBytes:      32 * units.GB,
				ExternalBytes: 1 * units.TB,
				FSBytes:       1 * units.TB,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddTask(&Task{ID: "F", Name: "merge", Nodes: 1, Work: Work{FSBytes: 5 * units.GB}}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"A", "B", "C", "D", "E"} {
		if err := w.AddDep(id, "F"); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestLCLSCharacterization(t *testing.T) {
	w := lcls(t)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.TotalTasks() != 6 {
		t.Errorf("total tasks = %d, want 6", w.TotalTasks())
	}
	p, err := w.ParallelTasks()
	if err != nil {
		t.Fatal(err)
	}
	if p != 5 {
		t.Errorf("parallel tasks = %d, want 5 (paper Fig 4)", p)
	}
	if w.MaxTaskNodes() != 32 {
		t.Errorf("max task nodes = %d, want 32", w.MaxTaskNodes())
	}
	m := w.MaxWorkPerTask()
	if m.ExternalBytes != 1*units.TB {
		t.Errorf("max external bytes = %v", m.ExternalBytes)
	}
	if m.MemBytes != 32*units.GB {
		t.Errorf("max mem bytes = %v", m.MemBytes)
	}
	tot := totalWork(w)
	if tot.ExternalBytes != 5*units.TB {
		t.Errorf("total external = %v, want 5 TB", tot.ExternalBytes)
	}
	if tot.FSBytes != 5*units.TB+5*units.GB {
		t.Errorf("total FS = %v", tot.FSBytes)
	}
}

func TestAddTaskErrors(t *testing.T) {
	w := New("X", "cpu")
	if err := w.AddTask(nil); err == nil {
		t.Error("nil task should fail")
	}
	if err := w.AddTask(&Task{ID: "", Nodes: 1}); err == nil {
		t.Error("empty id should fail")
	}
	if err := w.AddTask(&Task{ID: "a", Nodes: 0}); err == nil {
		t.Error("zero nodes should fail")
	}
	if err := w.AddTask(&Task{ID: "a", Nodes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask(&Task{ID: "a", Nodes: 2}); err == nil {
		t.Error("duplicate id should fail")
	}
}

func TestAddDepErrors(t *testing.T) {
	w := New("X", "cpu")
	if err := w.AddTask(&Task{ID: "a", Nodes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDep("a", "missing"); err == nil {
		t.Error("dep to unknown task should fail")
	}
	if err := w.AddDep("missing", "a"); err == nil {
		t.Error("dep from unknown task should fail")
	}
	if err := w.AddDep("a", "a"); err == nil {
		t.Error("self dep should fail")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	w := New("X", "cpu")
	for _, id := range []string{"a", "b"} {
		if err := w.AddTask(&Task{ID: id, Nodes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddDep("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDep("b", "a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err == nil {
		t.Error("cycle should fail validation")
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New("X", "cpu").Validate(); err == nil {
		t.Error("empty workflow should fail validation")
	}
	w := New("", "cpu")
	if err := w.AddTask(&Task{ID: "a", Nodes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err == nil {
		t.Error("unnamed workflow should fail validation")
	}
}

func TestTaskLabel(t *testing.T) {
	if got := (&Task{ID: "a"}).Label(); got != "a" {
		t.Errorf("Label = %q", got)
	}
	if got := (&Task{ID: "a", Name: "Epsilon"}).Label(); got != "Epsilon" {
		t.Errorf("Label = %q", got)
	}
}

func TestWorkAddScale(t *testing.T) {
	a := Work{Flops: 10, MemBytes: 20, PCIeBytes: 5, NetworkBytes: 3, FSBytes: 7, ExternalBytes: 1}
	b := a.Add(a)
	if b != scaleWork(a, 2) {
		t.Errorf("Add(a,a) = %+v, scaleWork(a, 2) = %+v", b, scaleWork(a, 2))
	}
	if !(Work{}).IsZero() {
		t.Error("zero work should be IsZero")
	}
	if a.IsZero() {
		t.Error("non-zero work reported IsZero")
	}
	if got := scaleWork(a, 0); !got.IsZero() {
		t.Errorf("scaleWork(a, 0) = %+v", got)
	}
}

func TestCriticalPathMeasured(t *testing.T) {
	w := New("BGW", "gpu")
	if err := w.AddTask(&Task{ID: "epsilon", Nodes: 64, MeasuredSeconds: 1109}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask(&Task{ID: "sigma", Nodes: 64, MeasuredSeconds: 3076}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDep("epsilon", "sigma"); err != nil {
		t.Fatal(err)
	}
	path, total, err := w.CriticalPathMeasured()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []string{"epsilon", "sigma"}) {
		t.Errorf("path = %v", path)
	}
	if math.Abs(total-4185) > 1 {
		t.Errorf("total = %v, want about 4185 (paper BGW 64-node)", total)
	}
}

func TestTasksSorted(t *testing.T) {
	w := New("X", "cpu")
	for _, id := range []string{"c", "a", "b"} {
		if err := w.AddTask(&Task{ID: id, Nodes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for _, task := range w.Tasks() {
		ids = append(ids, task.ID)
	}
	if !reflect.DeepEqual(ids, []string{"a", "b", "c"}) {
		t.Errorf("Tasks order = %v", ids)
	}
}

func TestTaskLookup(t *testing.T) {
	w := lcls(t)
	tk, err := w.Task("F")
	if err != nil {
		t.Fatal(err)
	}
	if tk.Label() != "merge" {
		t.Errorf("F label = %q", tk.Label())
	}
	if _, err := w.Task("Z"); err == nil {
		t.Error("missing task lookup should fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := lcls(t)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Workflow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "LCLS" || back.Partition != "haswell" {
		t.Errorf("identity lost: %q %q", back.Name, back.Partition)
	}
	if back.Targets != w.Targets {
		t.Errorf("targets lost: %+v", back.Targets)
	}
	if back.TotalTasks() != 6 {
		t.Errorf("tasks = %d", back.TotalTasks())
	}
	p, err := back.ParallelTasks()
	if err != nil {
		t.Fatal(err)
	}
	if p != 5 {
		t.Errorf("parallel tasks after round trip = %d", p)
	}
	tk, err := back.Task("A")
	if err != nil {
		t.Fatal(err)
	}
	if tk.Work.ExternalBytes != 1*units.TB {
		t.Errorf("work lost in round trip: %+v", tk.Work)
	}
}

func TestUnmarshalRejectsBad(t *testing.T) {
	cases := []string{
		`{"name":"X","partition":"p","tasks":[]}`,                                        // empty
		`{"name":"X","partition":"p","tasks":[{"id":"a","nodes":0}]}`,                    // bad nodes
		`{"name":"X","partition":"p","tasks":[{"id":"a","nodes":1}],"deps":[["a","b"]]}`, // dangling dep
		`not json`,
	}
	for _, c := range cases {
		var w Workflow
		if err := json.Unmarshal([]byte(c), &w); err == nil {
			t.Errorf("decode of %q should fail", c)
		}
	}
}

// Property: TotalWork equals MaxWorkPerTask scaled by task count for
// homogeneous workflows.
func TestQuickHomogeneousAggregation(t *testing.T) {
	f := func(n uint8, flops uint32, fs uint32) bool {
		count := int(n%10) + 1
		w := New("Q", "cpu")
		unit := Work{Flops: units.Flops(flops), FSBytes: units.Bytes(fs)}
		for i := 0; i < count; i++ {
			id := string(rune('a' + i))
			if err := w.AddTask(&Task{ID: id, Nodes: 1, Work: unit}); err != nil {
				return false
			}
		}
		tot := totalWork(w)
		want := scaleWork(unit, float64(count))
		return math.Abs(float64(tot.Flops-want.Flops)) < 1e-6 &&
			math.Abs(float64(tot.FSBytes-want.FSBytes)) < 1e-6 &&
			w.MaxWorkPerTask() == unit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// scaleWork returns the work vector multiplied by k.
func scaleWork(w Work, k float64) Work {
	return Work{
		Flops:         units.Flops(float64(w.Flops) * k),
		MemBytes:      units.Bytes(float64(w.MemBytes) * k),
		PCIeBytes:     units.Bytes(float64(w.PCIeBytes) * k),
		NetworkBytes:  units.Bytes(float64(w.NetworkBytes) * k),
		FSBytes:       units.Bytes(float64(w.FSBytes) * k),
		ExternalBytes: units.Bytes(float64(w.ExternalBytes) * k),
	}
}

// totalWork returns the component-wise sum of all task work vectors.
func totalWork(w *Workflow) Work {
	var s Work
	for _, t := range w.tasks {
		s = s.Add(t.Work)
	}
	return s
}
