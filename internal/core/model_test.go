package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wroofline/internal/machine"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

func almost(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// fig1Model reproduces the example of Fig 1: 1 TB per task via the file
// system at 5.6 TB/s, 1 TB per node via NICs at 100 GB/s, 4 GB PCIe per
// node at 100 GB/s, 100 GFLOP per node at 38.8 TFLOPS, 64-node tasks on the
// 1792-node GPU partition (wall 28).
func fig1Model(t *testing.T) *Model {
	t.Helper()
	m := &Model{Title: "Fig 1 example", Wall: 28}
	m.AddCeiling(Ceiling{
		Name: "File System Bytes: Loading 1TB @ 5.6 TB/s", Resource: ResFileSystem,
		Scope: ScopeSystem, TimePerTask: units.TimeToMove(1*units.TB, 5.6*units.TBPS),
	})
	m.AddCeiling(Ceiling{
		Name: "Network bytes: 1TB @ 100 GB/s", Resource: ResNetwork,
		Scope: ScopeSystem, TimePerTask: units.TimeToMove(1*units.TB, 100*units.GBPS),
	})
	m.AddCeiling(Ceiling{
		Name: "PCIe Bytes: 4GB @ 100 GB/s", Resource: ResPCIe,
		Scope: ScopeNode, TimePerTask: units.TimeToMove(4*units.GB, 100*units.GBPS),
	})
	m.AddCeiling(Ceiling{
		Name: "Compute Flops: 100 GFLOPs @ 38.8 TFLOPS", Resource: ResCompute,
		Scope: ScopeNode, TimePerTask: units.TimeToCompute(100*units.GFLOP, 38.8*units.TFLOPS),
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCeilingTPSAt(t *testing.T) {
	node := Ceiling{Scope: ScopeNode, TimePerTask: 2}
	if got := node.TPSAt(1); got != 0.5 {
		t.Errorf("node TPS(1) = %v", got)
	}
	if got := node.TPSAt(10); got != 5 {
		t.Errorf("node TPS(10) = %v (diagonal must scale with p)", got)
	}
	sys := Ceiling{Scope: ScopeSystem, TimePerTask: 2}
	if got := sys.TPSAt(1); got != 0.5 {
		t.Errorf("system TPS(1) = %v", got)
	}
	if got := sys.TPSAt(10); got != 0.5 {
		t.Errorf("system TPS(10) = %v (horizontal must not scale)", got)
	}
	unused := Ceiling{Scope: ScopeNode, TimePerTask: 0}
	if !math.IsInf(unused.TPSAt(5), 1) {
		t.Errorf("unused ceiling should be +Inf")
	}
}

func TestFig1Bounds(t *testing.T) {
	m := fig1Model(t)
	// At p=1 the network ceiling binds: 1 TB @ 100 GB/s = 10 s -> 0.1 TPS.
	tps, limit := m.Bound(1)
	if !almost(tps, 0.1, 1e-9) {
		t.Errorf("bound(1) = %v, want 0.1", tps)
	}
	if limit.Resource != ResNetwork {
		t.Errorf("limit at p=1 = %v, want network", limit.Resource)
	}
	// The network ceiling stays binding out to the wall (PCIe diagonal at
	// p=28 gives 28/0.04 = 700 TPS, far above 0.1).
	tps, limit = m.BoundAtWall()
	if !almost(tps, 0.1, 1e-9) || limit.Resource != ResNetwork {
		t.Errorf("bound at wall = %v by %v", tps, limit.Resource)
	}
	// Beyond the wall the bound is clipped to the wall value.
	tpsBeyond, _ := m.Bound(1000)
	if tpsBeyond != tps {
		t.Errorf("bound beyond wall = %v, want clipped %v", tpsBeyond, tps)
	}
	// Non-positive p.
	if tps, _ := m.Bound(0); tps != 0 {
		t.Errorf("bound(0) = %v, want 0", tps)
	}
	if tps, _ := m.Bound(-2); tps != 0 {
		t.Errorf("bound(-2) = %v, want 0", tps)
	}
}

func TestFig1FileSystemCeiling(t *testing.T) {
	m := fig1Model(t)
	var fs Ceiling
	for _, c := range m.Ceilings {
		if c.Resource == ResFileSystem {
			fs = c
		}
	}
	// 1 TB @ 5.6 TB/s = 0.1786 s -> 5.6 TPS horizontal.
	if !almost(fs.TPSAt(1), 5.6, 1e-9) || !almost(fs.TPSAt(28), 5.6, 1e-9) {
		t.Errorf("FS ceiling = %v / %v, want 5.6 TPS flat", fs.TPSAt(1), fs.TPSAt(28))
	}
}

func TestAddCeilingSkipsUnused(t *testing.T) {
	m := &Model{Wall: 1}
	m.AddCeiling(Ceiling{Name: "zero", TimePerTask: 0})
	m.AddCeiling(Ceiling{Name: "neg", TimePerTask: -3})
	if len(m.Ceilings) != 0 {
		t.Errorf("unused ceilings should be skipped, got %d", len(m.Ceilings))
	}
}

func TestModelValidate(t *testing.T) {
	m := &Model{Wall: 1}
	if err := m.Validate(); err == nil {
		t.Error("no ceilings should fail")
	}
	m.AddCeiling(Ceiling{Name: "c", TimePerTask: 1})
	m.Wall = 0
	if err := m.Validate(); err == nil {
		t.Error("zero wall should fail")
	}
	m.Wall = 1
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	m.Ceilings[0].TimePerTask = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN ceiling should fail")
	}
}

func TestScaleIntraTask(t *testing.T) {
	m := fig1Model(t)
	scaled, err := m.ScaleIntraTask(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Wall != 14 {
		t.Errorf("wall after 2x intra-task = %d, want 14", scaled.Wall)
	}
	for i, c := range scaled.Ceilings {
		orig := m.Ceilings[i]
		switch c.Scope {
		case ScopeNode:
			if !almost(c.TimePerTask, orig.TimePerTask/2, 1e-12) {
				t.Errorf("node ceiling %q not halved: %v vs %v", c.Name, c.TimePerTask, orig.TimePerTask)
			}
		case ScopeSystem:
			if c.TimePerTask != orig.TimePerTask {
				t.Errorf("system ceiling %q changed: %v vs %v", c.Name, c.TimePerTask, orig.TimePerTask)
			}
		}
	}
	// The receiver must be untouched.
	if m.Wall != 28 {
		t.Errorf("original mutated: wall %d", m.Wall)
	}
	// Imperfect scaling: time shrinks less.
	imperfect, err := m.ScaleIntraTask(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(imperfect.Ceilings[2].TimePerTask, m.Ceilings[2].TimePerTask, 1e-12) {
		t.Errorf("2x at 50%% efficiency should leave node time unchanged")
	}
	// Fractional k coarsens: the wall widens and node tasks slow down.
	half, err := m.ScaleIntraTask(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if half.Wall != 56 {
		t.Errorf("0.5x wall = %d, want 56", half.Wall)
	}
	if _, err := m.ScaleIntraTask(0, 1); err == nil {
		t.Error("k = 0 should fail")
	}
	if _, err := m.ScaleIntraTask(-2, 1); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := m.ScaleIntraTask(math.NaN(), 1); err == nil {
		t.Error("NaN k should fail")
	}
	if _, err := m.ScaleIntraTask(2, 0); err == nil {
		t.Error("zero efficiency should fail")
	}
	if _, err := m.ScaleIntraTask(2, 1.5); err == nil {
		t.Error("efficiency > 1 should fail")
	}
}

// Fig 2c invariant: with perfect scalability the TPS bound at the wall from
// a node ceiling is unchanged by intra-task rescaling (wall/k tasks, each
// k-times faster), so the makespan-wall intercept is preserved.
func TestQuickIntraTaskWallIntercept(t *testing.T) {
	f := func(kRaw uint8, timeRaw uint16) bool {
		k := float64(kRaw%6 + 1)
		tt := float64(timeRaw%1000+1) / 10
		m := &Model{Title: "q", Wall: 1024}
		m.AddCeiling(Ceiling{Name: "node", Scope: ScopeNode, TimePerTask: tt})
		scaled, err := m.ScaleIntraTask(k, 1.0)
		if err != nil {
			return false
		}
		b0, _ := m.BoundAtWall()
		b1, _ := scaled.BoundAtWall()
		// floor(wall/k)*k <= wall, so the scaled bound can be at most the
		// original and equal when k divides the wall.
		if b1 > b0*(1+1e-9) {
			return false
		}
		if math.Mod(1024, k) == 0 && !almost(b0, b1, 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPoint(t *testing.T) {
	pt, err := NewPoint("Good Days", 6, 5, 17*60)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pt.TPS, 6.0/1020.0, 1e-12) {
		t.Errorf("TPS = %v", pt.TPS)
	}
	if pt.ParallelTasks != 5 {
		t.Errorf("x = %v", pt.ParallelTasks)
	}
	for _, bad := range []struct {
		tot, par int
		mk       float64
	}{
		{0, 5, 10}, {6, 0, 10}, {6, 5, 0}, {-1, 5, 10}, {6, -2, 10}, {6, 5, -1},
	} {
		if _, err := NewPoint("bad", bad.tot, bad.par, bad.mk); err == nil {
			t.Errorf("NewPoint(%+v) should fail", bad)
		}
	}
}

func TestEfficiencyAndHeadroom(t *testing.T) {
	m := &Model{Title: "e", Wall: 10}
	m.AddCeiling(Ceiling{Name: "node", Scope: ScopeNode, TimePerTask: 1})
	pt := Point{ParallelTasks: 4, TPS: 2} // attainable 4
	if e := m.Efficiency(pt); !almost(e, 0.5, 1e-12) {
		t.Errorf("efficiency = %v", e)
	}
	if h := m.Headroom(pt); !almost(h, 2, 1e-12) {
		t.Errorf("headroom = %v", h)
	}
	empty := &Model{Wall: 10}
	if e := empty.Efficiency(pt); e != 0 {
		t.Errorf("efficiency without ceilings = %v, want 0", e)
	}
	if h := empty.Headroom(pt); !math.IsInf(h, 1) {
		t.Errorf("headroom without ceilings = %v, want +Inf", h)
	}
}

func TestTargetLines(t *testing.T) {
	var nilT *TargetLines
	if nilT.MakespanTPS() != 0 {
		t.Error("nil targets should give 0")
	}
	tl := &TargetLines{MakespanSeconds: 600, TotalTasks: 6}
	if !almost(tl.MakespanTPS(), 0.01, 1e-12) {
		t.Errorf("makespan TPS = %v, want 0.01", tl.MakespanTPS())
	}
	m := &Model{Wall: 1}
	m.SetTargets(workflow.Targets{}, 6)
	if m.Targets != nil {
		t.Error("empty targets should clear Targets")
	}
	m.SetTargets(workflow.Targets{MakespanSeconds: 600, ThroughputTPS: 0.01}, 6)
	if m.Targets == nil || m.Targets.TotalTasks != 6 {
		t.Errorf("targets not installed: %+v", m.Targets)
	}
}

func TestStringOutput(t *testing.T) {
	m := fig1Model(t)
	m.SetTargets(workflow.Targets{MakespanSeconds: 600, ThroughputTPS: 0.01}, 6)
	s := m.String()
	for _, want := range []string{"Fig 1 example", "wall: 28", "File System", "target makespan", "target throughput"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	c := Ceiling{Name: "x", Scope: ScopeSystem, TimePerTask: 2}
	if got := c.String(); !strings.Contains(got, "system") {
		t.Errorf("ceiling String = %q", got)
	}
}

func TestScopeResourceStrings(t *testing.T) {
	if ScopeNode.String() != "node" || ScopeSystem.String() != "system" {
		t.Error("scope names wrong")
	}
	if Scope(99).String() == "" || Resource(99).String() == "" {
		t.Error("unknown enums should still print")
	}
	names := map[Resource]string{
		ResCompute: "compute", ResMemory: "memory", ResPCIe: "pcie",
		ResNetwork: "network", ResFileSystem: "filesystem",
		ResExternal: "external", ResOverhead: "overhead",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

// Build against real machine/workflow specs: the LCLS-on-Cori model of
// Fig 5a.
func TestBuildLCLSCori(t *testing.T) {
	cori := machine.CoriHaswell()
	w := workflow.New("LCLS", machine.PartHaswell)
	w.Targets = workflow.Targets{MakespanSeconds: 600, ThroughputTPS: 0.01}
	for _, id := range []string{"A", "B", "C", "D", "E"} {
		if err := w.AddTask(&workflow.Task{
			ID: id, Nodes: 32, Procs: 1024,
			Work: workflow.Work{
				MemBytes:      32 * units.GB,
				FSBytes:       1 * units.TB,
				ExternalBytes: 1 * units.TB,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddTask(&workflow.Task{ID: "F", Nodes: 1, Work: workflow.Work{FSBytes: 5 * units.GB}}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"A", "B", "C", "D", "E"} {
		if err := w.AddDep(id, "F"); err != nil {
			t.Fatal(err)
		}
	}
	model, err := Build(cori, w, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if model.Wall != 74 {
		t.Errorf("wall = %d, want 74 (2388/32)", model.Wall)
	}
	// External ceiling: 1 TB per task @ 1 GB/s = 1000 s -> 0.001 TPS flat.
	foundExt := false
	for _, c := range model.Ceilings {
		if c.Resource == ResExternal {
			foundExt = true
			if c.Scope != ScopeSystem {
				t.Errorf("external ceiling scope = %v", c.Scope)
			}
			if !almost(c.TPSAt(5), 0.001, 1e-9) {
				t.Errorf("external ceiling = %v TPS, want 0.001", c.TPSAt(5))
			}
		}
	}
	if !foundExt {
		t.Fatal("no external ceiling built")
	}
	// At p=5 the external ceiling must bind (the paper's core LCLS claim).
	_, limit := model.Bound(5)
	if limit.Resource != ResExternal {
		t.Errorf("limiting resource = %v, want external", limit.Resource)
	}
	if model.Targets == nil || model.Targets.TotalTasks != 6 {
		t.Errorf("targets not derived: %+v", model.Targets)
	}
}

func TestBuildErrors(t *testing.T) {
	pm := machine.Perlmutter()
	// Oversized task.
	w := workflow.New("big", machine.PartGPU)
	if err := w.AddTask(&workflow.Task{ID: "t", Nodes: 4000, Work: workflow.Work{Flops: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pm, w, BuildOptions{}); err == nil {
		t.Error("task larger than partition should fail")
	}
	// Unknown partition.
	w2 := workflow.New("x", "nope")
	if err := w2.AddTask(&workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{Flops: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pm, w2, BuildOptions{}); err == nil {
		t.Error("unknown partition should fail")
	}
	// External bytes with no external bandwidth anywhere.
	noExt := pm.WithExternalBW(0)
	w3 := workflow.New("ext", machine.PartGPU)
	if err := w3.AddTask(&workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{ExternalBytes: 1 * units.TB}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(noExt, w3, BuildOptions{}); err == nil {
		t.Error("external bytes without external bandwidth should fail")
	}
	// PCIe bytes on a partition with no PCIe peak: a named error, not an
	// invalid +Inf ceiling time.
	w4 := workflow.New("pcie", machine.PartCPU)
	if err := w4.AddTask(&workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{PCIeBytes: 1 * units.GB}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(pm, w4, BuildOptions{}); err == nil ||
		err.Error() != "core: workflow pcie moves PCIe data but partition Perlmutter/cpu has no PCIe bandwidth" {
		t.Errorf("PCIe bytes without PCIe bandwidth: err = %v", err)
	}
	// Empty workflow.
	if _, err := Build(pm, workflow.New("empty", machine.PartGPU), BuildOptions{}); err == nil {
		t.Error("empty workflow should fail")
	}
}

func TestBuildOptionsOverrides(t *testing.T) {
	pm := machine.Perlmutter()
	w := workflow.New("cosmo", machine.PartGPU)
	if err := w.AddTask(&workflow.Task{
		ID: "i0", Nodes: 128,
		Work: workflow.Work{MemBytes: 26.2 * units.TB / 128, FSBytes: 2 * units.TB},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := Build(pm, w, BuildOptions{AvailableNodes: 1536})
	if err != nil {
		t.Fatal(err)
	}
	if m.Wall != 12 {
		t.Errorf("wall with 1536 available nodes = %d, want 12", m.Wall)
	}
	// Overhead ceiling.
	m2, err := Build(pm, w, BuildOptions{OverheadSeconds: 5, OverheadName: "Python"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range m2.Ceilings {
		if c.Resource == ResOverhead {
			found = true
			if c.TimePerTask != 5 || !strings.Contains(c.Name, "Python") {
				t.Errorf("overhead ceiling = %+v", c)
			}
		}
	}
	if !found {
		t.Error("overhead ceiling missing")
	}
	// External override.
	w4 := workflow.New("ext", machine.PartGPU)
	if err := w4.AddTask(&workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{ExternalBytes: 1 * units.TB}}); err != nil {
		t.Fatal(err)
	}
	m3, err := Build(pm, w4, BuildOptions{ExternalBW: 5 * units.GBPS})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m3.Ceilings {
		if c.Resource == ResExternal && !almost(c.TimePerTask, 200, 1e-9) {
			t.Errorf("external override: time = %v, want 200", c.TimePerTask)
		}
	}
}

// Property: Bound is monotone non-decreasing in p and never exceeds the
// minimum single ceiling evaluated directly.
func TestQuickBoundMonotone(t *testing.T) {
	f := func(tNode, tSys uint16, p1, p2 uint8) bool {
		m := &Model{Wall: 256}
		m.AddCeiling(Ceiling{Name: "n", Scope: ScopeNode, TimePerTask: float64(tNode%500) + 0.5})
		m.AddCeiling(Ceiling{Name: "s", Scope: ScopeSystem, TimePerTask: float64(tSys%500) + 0.5})
		a, b := float64(p1%200)+1, float64(p2%200)+1
		if a > b {
			a, b = b, a
		}
		ba, _ := m.Bound(a)
		bb, _ := m.Bound(b)
		if ba > bb+1e-12 {
			return false
		}
		for _, c := range m.Ceilings {
			if v, _ := m.Bound(a); v > c.TPSAt(math.Min(a, float64(m.Wall)))+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
