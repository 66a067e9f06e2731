package workloads

import (
	"math"
	"testing"

	"wroofline/internal/core"
)

func almost(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

func TestLCLSCoriModel(t *testing.T) {
	cs, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Model.Wall != 74 {
		t.Errorf("wall = %d, want 74 (Fig 5a)", cs.Model.Wall)
	}
	p, err := cs.Workflow.ParallelTasks()
	if err != nil {
		t.Fatal(err)
	}
	if p != 5 {
		t.Errorf("parallel tasks = %d, want 5", p)
	}
	if cpl, _ := cs.Workflow.Graph().CriticalPathLength(); cpl != 2 {
		t.Errorf("critical path length = %d, want 2 (Fig 4)", cpl)
	}
	// Targets: 10 minutes, 6 tasks.
	if cs.Model.Targets == nil || cs.Model.Targets.MakespanSeconds != 600 {
		t.Errorf("targets = %+v", cs.Model.Targets)
	}
	if !almost(cs.Model.Targets.ThroughputTPS, 0.01, 1e-9) {
		t.Errorf("target TPS = %v, want 6/600", cs.Model.Targets.ThroughputTPS)
	}
}

// The paper's core LCLS claim: both dots sit on the external ceiling, and
// the external path is the limiting resource.
func TestLCLSCoriDotsOnExternalCeiling(t *testing.T) {
	cs, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Points) != 2 {
		t.Fatalf("points = %d", len(cs.Points))
	}
	good, bad := cs.Points[0], cs.Points[1]
	// Good day TPS = 6/1020; external good-day ceiling at p=5 allows
	// 5/1000 = 0.005 — the dot "overlaps" its ceiling (within 20%).
	goodCeil := cs.Model.Ceilings[0].TPSAt(good.ParallelTasks)
	if !almost(good.TPS, goodCeil, 0.20) {
		t.Errorf("good-day dot %.5f vs ceiling %.5f: should overlap", good.TPS, goodCeil)
	}
	badCeil := cs.Model.Ceilings[1].TPSAt(bad.ParallelTasks)
	if !almost(bad.TPS, badCeil, 0.20) {
		t.Errorf("bad-day dot %.5f vs ceiling %.5f: should overlap", bad.TPS, badCeil)
	}
	// Bad day is ~5x below good day.
	if ratio := good.TPS / bad.TPS; !almost(ratio, 5, 0.05) {
		t.Errorf("good/bad ratio = %v, want ~5 (contention factor)", ratio)
	}
	// The limiting resource at p=5 is the external path.
	if _, c := cs.Model.Bound(5); c.Resource != core.ResExternal {
		t.Errorf("limiting resource = %v, want external", c.Resource)
	}
}

// Even on good days, LCLS cannot meet the 2020 target (Fig 5a).
func TestLCLSCoriTargetUnreachable(t *testing.T) {
	cs, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	good := cs.Points[0]
	if zone := cs.Model.ClassifyZone(good); zone != core.ZonePoorPoor {
		t.Errorf("good-day zone = %v, want poor/poor", zone)
	}
	// Even at the external ceiling with 5 parallel tasks the target TPS is
	// out of reach: ceiling 0.005 < target 0.01.
	ceil := cs.Model.Ceilings[0].TPSAt(5)
	if ceil >= cs.Model.Targets.ThroughputTPS {
		t.Errorf("external ceiling %v should be below target %v",
			ceil, cs.Model.Targets.ThroughputTPS)
	}
	if cls := cs.Model.ClassifyBound(good); cls != core.SystemBound {
		t.Errorf("bound class = %v, want system bound", cls)
	}
}

// The simulation regenerates the reported 17-minute good day and 85-minute
// bad day within 2%.
func TestLCLSCoriSimulationMatchesReported(t *testing.T) {
	good, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	res, err := good.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, LCLSGoodDaySeconds, 0.02) {
		t.Errorf("good-day sim = %.1fs, want %.1fs +-2%%", res.Makespan, float64(LCLSGoodDaySeconds))
	}
	// Breakdown: loading dominates (Fig 5b).
	bd := res.Breakdown()
	if bd["loading"] < 10*bd["analysis"] {
		t.Errorf("loading (%.1f) should dwarf analysis (%.1f)", bd["loading"], bd["analysis"])
	}

	bad, err := LCLSCoriBadDay()
	if err != nil {
		t.Fatal(err)
	}
	resBad, err := bad.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(resBad.Makespan, LCLSBadDaySeconds, 0.02) {
		t.Errorf("bad-day sim = %.1fs, want %.1fs +-2%%", resBad.Makespan, float64(LCLSBadDaySeconds))
	}
	if ratio := resBad.Makespan / res.Makespan; !almost(ratio, 5, 0.05) {
		t.Errorf("bad/good sim ratio = %v, want ~5", ratio)
	}
}

func TestLCLSPerlmutterModel(t *testing.T) {
	cs, err := LCLSPerlmutter()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Model.Wall != 384 {
		t.Errorf("wall = %d, want 384 (Fig 6)", cs.Model.Wall)
	}
	// The 25 GB/s external ceiling sits slightly above the target
	// throughput line: 0.025 vs 0.02 TPS.
	ext := cs.Model.Ceilings[0]
	if !almost(ext.TPSAt(5), 0.025, 1e-6) {
		t.Errorf("external ceiling = %v TPS, want 0.025", ext.TPSAt(5))
	}
	if ext.TPSAt(5) <= cs.Model.Targets.ThroughputTPS {
		t.Error("ideal DTN ceiling should clear the target (slightly)")
	}
	// The contended (5 GB/s) ceiling falls below the target: unreachable.
	contended := cs.Model.Ceilings[1]
	if contended.TPSAt(5) >= cs.Model.Targets.ThroughputTPS {
		t.Errorf("contended ceiling %v should be below target %v",
			contended.TPSAt(5), cs.Model.Targets.ThroughputTPS)
	}
	// The internal file system is far from binding (Fig 6: "far on the
	// top"): at least 100x above the external ceiling.
	var fs core.Ceiling
	for _, c := range cs.Model.Ceilings {
		if c.Resource == core.ResFileSystem {
			fs = c
		}
	}
	if fs.TPSAt(5) < 100*ext.TPSAt(5) {
		t.Errorf("internal FS ceiling (%v) should tower over external (%v)",
			fs.TPSAt(5), ext.TPSAt(5))
	}
}

// On PM-CPU with the ideal DTN the workflow meets the 2024 target; with 5x
// contention it cannot.
func TestLCLSPerlmutterSimulation(t *testing.T) {
	ideal, err := LCLSPerlmutter()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ideal.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// 5 TB over a shared 25 GB/s link = 200 s loading + analysis + merge.
	if res.Makespan >= LCLSTarget2024Seconds {
		t.Errorf("ideal sim = %.1fs, should beat the 300 s target", res.Makespan)
	}
	if res.Makespan < 200 {
		t.Errorf("ideal sim = %.1fs, cannot beat the 200 s transfer floor", res.Makespan)
	}

	contended, err := LCLSPerlmutterContended()
	if err != nil {
		t.Fatal(err)
	}
	resC, err := contended.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if resC.Makespan <= LCLSTarget2024Seconds {
		t.Errorf("contended sim = %.1fs, should miss the 300 s target", resC.Makespan)
	}
	if resC.Makespan <= res.Makespan {
		t.Error("contention should slow the workflow")
	}
}

// The system-architect insight: LCLS is system bound, so a 10x faster node
// makes no difference to the bound.
func TestLCLSFasterComputeMakesNoDifference(t *testing.T) {
	cs, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := cs.Model.Bound(5)
	// Scale every node-scoped non-external ceiling up 10x (faster CPUs).
	faster := &core.Model{Title: "faster", Wall: cs.Model.Wall, Targets: cs.Model.Targets}
	for _, c := range cs.Model.Ceilings {
		nc := c
		if c.Scope == core.ScopeNode && c.Resource != core.ResExternal {
			nc.TimePerTask = c.TimePerTask / 10
		}
		faster.Ceilings = append(faster.Ceilings, nc)
	}
	after, _ := faster.Bound(5)
	if !almost(before, after, 1e-9) {
		t.Errorf("10x faster compute changed the bound: %v -> %v", before, after)
	}
	// And the advisor says so.
	recs := cs.Model.Advise(cs.Points[0])
	found := false
	for _, r := range recs {
		if r.Title == "do not buy faster compute" {
			found = true
		}
	}
	if !found {
		t.Errorf("advisor should warn against faster compute: %+v", recs)
	}
}

func TestLCLSCoriFaulty(t *testing.T) {
	cs, err := LCLSCoriFaulty()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SimConfig.Failures == nil || !cs.SimConfig.Failures.Enabled() {
		t.Fatal("faulty scenario has no armed failure model")
	}
	if _, err := ByName("lcls-cori-faulty"); err != nil {
		t.Fatal(err)
	}
	good, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	base, err := good.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// The scenario is deterministic per its pinned seed: both outcomes are
	// legal, but whichever this seed draws must be consistent.
	if res.Retries == 0 {
		if res.Makespan != base.Makespan {
			t.Errorf("no retries but makespan moved: %v vs %v", res.Makespan, base.Makespan)
		}
	} else if res.Makespan <= base.Makespan {
		t.Errorf("%d retries but makespan did not grow: %v vs %v", res.Retries, res.Makespan, base.Makespan)
	}
	res2, err := cs.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != res.Makespan || res2.Retries != res.Retries {
		t.Errorf("faulty scenario not reproducible: %v/%d vs %v/%d",
			res.Makespan, res.Retries, res2.Makespan, res2.Retries)
	}
}
