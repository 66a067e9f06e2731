package core

import (
	"strings"
	"testing"

	"wroofline/internal/workflow"
)

// targetedModel builds a model with a node ceiling (1 s/task), a system
// ceiling (0.05 s/task -> 20 TPS flat), wall 100, and targets.
func targetedModel() *Model {
	m := &Model{Title: "t", Wall: 100}
	m.AddCeiling(Ceiling{Name: "node", Resource: ResCompute, Scope: ScopeNode, TimePerTask: 1})
	m.AddCeiling(Ceiling{Name: "sys", Resource: ResFileSystem, Scope: ScopeSystem, TimePerTask: 0.05})
	m.SetTargets(workflow.Targets{MakespanSeconds: 100, ThroughputTPS: 5}, 500)
	return m
}

func TestClassifyZone(t *testing.T) {
	m := targetedModel()
	cases := []struct {
		name string
		pt   Point
		want Zone
	}{
		{"green", Point{MakespanSeconds: 50, TPS: 10}, ZoneGoodGood},
		{"yellow", Point{MakespanSeconds: 50, TPS: 1}, ZoneGoodMakespanPoorThroughput},
		{"orange", Point{MakespanSeconds: 500, TPS: 10}, ZonePoorMakespanGoodThroughput},
		{"red", Point{MakespanSeconds: 500, TPS: 1}, ZonePoorPoor},
		{"boundary both", Point{MakespanSeconds: 100, TPS: 5}, ZoneGoodGood},
	}
	for _, c := range cases {
		if got := m.ClassifyZone(c.pt); got != c.want {
			t.Errorf("%s: zone = %v, want %v", c.name, got, c.want)
		}
	}
	noTargets := &Model{Wall: 10}
	noTargets.AddCeiling(Ceiling{Name: "n", Scope: ScopeNode, TimePerTask: 1})
	if got := noTargets.ClassifyZone(Point{TPS: 1}); got != ZoneNoTargets {
		t.Errorf("zone without targets = %v", got)
	}
}

func TestClassifyZonePartialTargets(t *testing.T) {
	// Only a deadline: throughput always "good".
	m := &Model{Wall: 10}
	m.AddCeiling(Ceiling{Name: "n", Scope: ScopeNode, TimePerTask: 1})
	m.SetTargets(workflow.Targets{MakespanSeconds: 100}, 10)
	if got := m.ClassifyZone(Point{MakespanSeconds: 50, TPS: 0.001}); got != ZoneGoodGood {
		t.Errorf("deadline-only met = %v", got)
	}
	if got := m.ClassifyZone(Point{MakespanSeconds: 500, TPS: 0.001}); got != ZonePoorMakespanGoodThroughput {
		t.Errorf("deadline-only missed = %v", got)
	}
	// Only a throughput floor: makespan always "good".
	m.SetTargets(workflow.Targets{ThroughputTPS: 5}, 10)
	if got := m.ClassifyZone(Point{MakespanSeconds: 1e9, TPS: 10}); got != ZoneGoodGood {
		t.Errorf("throughput-only met = %v", got)
	}
	if got := m.ClassifyZone(Point{MakespanSeconds: 1, TPS: 1}); got != ZoneGoodMakespanPoorThroughput {
		t.Errorf("throughput-only missed = %v", got)
	}
}

func TestClassifyBound(t *testing.T) {
	m := targetedModel()
	// At p=2 the node ceiling gives 2 TPS < 20 TPS system: node bound.
	if got := m.ClassifyBound(Point{ParallelTasks: 2, TPS: 1}); got != NodeBound {
		t.Errorf("p=2 = %v, want node bound", got)
	}
	// At p=50 node gives 50 > 20: system bound.
	if got := m.ClassifyBound(Point{ParallelTasks: 50, TPS: 15}); got != SystemBound {
		t.Errorf("p=50 = %v, want system bound", got)
	}
	// At the wall with a binding node ceiling and near-bound throughput:
	// parallelism bound.
	m2 := &Model{Wall: 10}
	m2.AddCeiling(Ceiling{Name: "node", Resource: ResCompute, Scope: ScopeNode, TimePerTask: 1})
	if got := m2.ClassifyBound(Point{ParallelTasks: 10, TPS: 9}); got != ParallelismBound {
		t.Errorf("at wall near bound = %v, want parallelism bound", got)
	}
	// At the wall but far below the bound: still node bound (inefficiency,
	// not the wall, is the story).
	if got := m2.ClassifyBound(Point{ParallelTasks: 10, TPS: 0.5}); got != NodeBound {
		t.Errorf("at wall far below bound = %v, want node bound", got)
	}
}

func TestBoundClassStrings(t *testing.T) {
	if NodeBound.String() != "node bound" || SystemBound.String() != "system bound" ||
		ParallelismBound.String() != "parallelism bound" {
		t.Error("bound class names wrong")
	}
	if BoundClass(9).String() == "" || Zone(9).String() == "" {
		t.Error("unknown enums should print")
	}
	for _, z := range []Zone{ZoneGoodGood, ZoneGoodMakespanPoorThroughput, ZonePoorMakespanGoodThroughput, ZonePoorPoor, ZoneNoTargets} {
		if z.String() == "" {
			t.Errorf("zone %d has empty name", int(z))
		}
	}
}

func TestAdviseYellowZone(t *testing.T) {
	// Fig 2b: good makespan, poor throughput, below the wall -> two
	// feasible directions.
	m := &Model{Wall: 100}
	m.AddCeiling(Ceiling{Name: "node", Resource: ResCompute, Scope: ScopeNode, TimePerTask: 1})
	m.SetTargets(workflow.Targets{MakespanSeconds: 100, ThroughputTPS: 50}, 500)
	pt := Point{Label: "wf", ParallelTasks: 10, TPS: 5, MakespanSeconds: 50}
	recs := m.Advise(pt)
	var latency, parallel *Recommendation
	for i := range recs {
		switch {
		case strings.Contains(recs[i].Title, "latency"):
			latency = &recs[i]
		case strings.Contains(recs[i].Title, "parallelism"):
			parallel = &recs[i]
		}
	}
	if latency == nil || !latency.Feasible {
		t.Fatalf("expected feasible latency direction, got %+v", recs)
	}
	if latency.ProjectedSpeedup < 1.9 || latency.ProjectedSpeedup > 2.1 {
		t.Errorf("latency headroom = %v, want about 2 (achieved 5 of 10)", latency.ProjectedSpeedup)
	}
	if parallel == nil || !parallel.Feasible {
		t.Fatalf("expected feasible parallelism direction, got %+v", recs)
	}
	if parallel.ProjectedSpeedup < 9.9 || parallel.ProjectedSpeedup > 10.1 {
		t.Errorf("parallelism gain = %v, want about 10 (wall 100 vs p 10)", parallel.ProjectedSpeedup)
	}
}

func TestAdviseAtWall(t *testing.T) {
	// Fig 2c: at the wall, the parallelism direction must be infeasible.
	m := &Model{Wall: 10}
	m.AddCeiling(Ceiling{Name: "node", Resource: ResCompute, Scope: ScopeNode, TimePerTask: 1})
	pt := Point{Label: "wf", ParallelTasks: 10, TPS: 5, MakespanSeconds: 50}
	recs := m.Advise(pt)
	foundInfeasible := false
	for _, r := range recs {
		if strings.Contains(r.Title, "parallelism") && !r.Feasible {
			foundInfeasible = true
		}
	}
	if !foundInfeasible {
		t.Errorf("at-wall advice should mark parallelism infeasible: %+v", recs)
	}
}

func TestAdviseSystemBound(t *testing.T) {
	// LCLS-style: system ceiling binds -> "do not buy faster compute" and
	// parallelism increase marked infeasible (horizontal ceiling).
	m := &Model{Wall: 74}
	m.AddCeiling(Ceiling{Name: "CPU", Resource: ResMemory, Scope: ScopeNode, TimePerTask: 0.25})
	m.AddCeiling(Ceiling{Name: "External", Resource: ResExternal, Scope: ScopeSystem, TimePerTask: 1000})
	pt := Point{Label: "Good Days", ParallelTasks: 5, TPS: 6.0 / 1020.0, MakespanSeconds: 1020}
	recs := m.Advise(pt)
	var noFaster, parallel bool
	for _, r := range recs {
		if strings.Contains(r.Title, "faster compute") {
			noFaster = true
		}
		if strings.Contains(r.Title, "parallelism") && !r.Feasible {
			parallel = true
		}
	}
	if !noFaster {
		t.Errorf("system-bound advice should warn against faster compute: %+v", recs)
	}
	if !parallel {
		t.Errorf("system-bound advice should mark parallelism useless: %+v", recs)
	}
}

func TestAdviseOverheadBound(t *testing.T) {
	// GPTune-style: a serialized overhead ceiling binds.
	m := &Model{Wall: 3072}
	m.AddCeiling(Ceiling{Name: "Python", Resource: ResOverhead, Scope: ScopeNode, TimePerTask: 12})
	m.AddCeiling(Ceiling{Name: "CPU", Resource: ResMemory, Scope: ScopeNode, TimePerTask: 0.016})
	pt := Point{Label: "Spawn", ParallelTasks: 1, TPS: 40.0 / 228.0, MakespanSeconds: 228}
	recs := m.Advise(pt)
	found := false
	for _, r := range recs {
		if strings.Contains(r.Title, "control-flow overhead") {
			found = true
		}
	}
	if !found {
		t.Errorf("overhead-bound advice missing: %+v", recs)
	}
}

func TestRecommendationString(t *testing.T) {
	r := Recommendation{Title: "x", Detail: "y", Feasible: true, ProjectedSpeedup: 2.5}
	s := r.String()
	if !strings.Contains(s, "feasible") || !strings.Contains(s, "2.5x") {
		t.Errorf("String = %q", s)
	}
	r.Feasible = false
	if !strings.Contains(r.String(), "INFEASIBLE") {
		t.Errorf("String = %q", r.String())
	}
}

func TestReport(t *testing.T) {
	m := targetedModel()
	pt := Point{Label: "run1", ParallelTasks: 2, TPS: 1, MakespanSeconds: 50, TotalTasks: 50}
	s := m.Report([]Point{pt})
	for _, want := range []string{"run1", "attainable", "efficiency", "zone", "advice"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
