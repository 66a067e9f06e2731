// Package archetype_test pins the NERSC workflow archetypes (bag-of-tasks,
// pipeline, fork-join, map-reduce, scatter-gather) as the wfgen families
// that generate them. The directory holds tests only: the archetypes are
// wfgen families, and these tests check each one's task count, structural
// width and critical-path length through the public wfgen API.
package archetype_test

import (
	"testing"
	"testing/quick"

	"wroofline/internal/wfgen"
	"wroofline/internal/workflow"
)

// archetypes maps each archetype to the wfgen family that generates it, in
// the survey's report order.
var archetypes = []struct{ name, family string }{
	{"bag-of-tasks", "bag"},
	{"pipeline", "chain"},
	{"fork-join", "fanout"},
	{"map-reduce", "mapreduce"},
	{"scatter-gather", "scatter"},
}

func generate(t *testing.T, family string, width, depth int) *workflow.Workflow {
	t.Helper()
	w, err := wfgen.Generate(&wfgen.Spec{Family: family, Width: width, Depth: depth})
	if err != nil {
		t.Fatalf("%s w=%d d=%d: %v", family, width, depth, err)
	}
	return w
}

// checkShape asserts a generated workflow's task count, structural width
// (ParallelTasks) and critical-path length.
func checkShape(t *testing.T, w *workflow.Workflow, tasks, width, cpl int) {
	t.Helper()
	if got := w.TotalTasks(); got != tasks {
		t.Errorf("%s: tasks = %d, want %d", w.Name, got, tasks)
	}
	p, err := w.ParallelTasks()
	if err != nil {
		t.Fatal(err)
	}
	if p != width {
		t.Errorf("%s: width = %d, want %d", w.Name, p, width)
	}
	got, err := w.Graph().CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	if got != cpl {
		t.Errorf("%s: critical path length = %d, want %d", w.Name, got, cpl)
	}
}

func TestBagOfTasks(t *testing.T) {
	// Bag ignores depth: Width independent tasks on one level.
	checkShape(t, generate(t, "bag", 8, 5), 8, 8, 1)
}

func TestPipeline(t *testing.T) {
	// Chain ignores width: Depth stages in one line.
	checkShape(t, generate(t, "chain", 6, 5), 5, 1, 5)
}

func TestForkJoin(t *testing.T) {
	// Fanout: source + 6 workers + sink, three levels.
	checkShape(t, generate(t, "fanout", 6, 2), 8, 6, 3)
}

func TestMapReduce(t *testing.T) {
	// Three rounds: map, reduce, map, reduce, map, reduce -> CP length 6.
	checkShape(t, generate(t, "mapreduce", 4, 3), 3*(4+1), 4, 6)
}

func TestScatterGather(t *testing.T) {
	// Scatter: 1+2+4+8 = 15; gather: 4+2+1 = 7; 8 leaves; depth levels
	// down plus depth levels up: CP length 2*3+1 = 7. Width is ignored.
	checkShape(t, generate(t, "scatter", 5, 3), 22, 8, 7)

	// The task cap bounds the depth: depth 18 is 3*2^18-2 = 786430 tasks,
	// depth 19 is over wfgen.MaxTasks, and a depth past the shift width
	// must fail rather than wrap.
	if s, err := (&wfgen.Spec{Family: "scatter", Depth: 18}).Shape(); err != nil || s.Tasks != 3<<18-2 {
		t.Errorf("depth 18: shape %+v, %v; want %d tasks", s, err, 3<<18-2)
	}
	for _, depth := range []int{19, 64, 1 << 32} {
		if _, err := (&wfgen.Spec{Family: "scatter", Depth: depth}).Shape(); err == nil {
			t.Errorf("depth %d should fail", depth)
		}
	}
}

// Property: generated archetypes are always acyclic with the promised
// width, for any parameters in range.
func TestQuickShapesWellFormed(t *testing.T) {
	f := func(wRaw, dRaw uint8, shapeIdx uint8) bool {
		width := int(wRaw%6) + 1
		depth := int(dRaw%4) + 1
		shape := archetypes[int(shapeIdx)%len(archetypes)]
		w, err := wfgen.Generate(&wfgen.Spec{Family: shape.family, Width: width, Depth: depth, Flops: "1 FLOP"})
		if err != nil {
			return false
		}
		if err := w.Validate(); err != nil {
			return false
		}
		p, err := w.ParallelTasks()
		if err != nil {
			return false
		}
		switch shape.name {
		case "bag-of-tasks", "fork-join", "map-reduce":
			return p == width
		case "pipeline":
			return p == 1
		case "scatter-gather":
			return p == 1<<uint(depth)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Across a size sweep the fork-join width is exactly the requested width,
// and a large map-reduce keeps every task distinct.
func TestForkJoinWidthSweep(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8, 16} {
		w := generate(t, "fanout", width, 1)
		p, err := w.ParallelTasks()
		if err != nil {
			t.Fatal(err)
		}
		if p != width {
			t.Fatalf("width %d: parallel tasks = %d", width, p)
		}
	}
	if w := generate(t, "mapreduce", 50, 4); w.TotalTasks() != 4*51 {
		t.Errorf("tasks = %d, want %d", w.TotalTasks(), 4*51)
	}
}
