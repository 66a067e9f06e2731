package workloads

import (
	"strings"
	"testing"

	"wroofline/internal/core"
	"wroofline/internal/gantt"
	"wroofline/internal/plot"
)

// The Fig 5a/6 contention overlays: the base case binds on the good-day
// ceiling with the contended one as scenario; the bad-day variant flips.
func TestLCLSScenarioFlip(t *testing.T) {
	good, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	var baseOperative, baseScenario string
	for _, c := range good.Model.Ceilings {
		if c.Resource != core.ResExternal {
			continue
		}
		if c.Scenario {
			baseScenario = c.Name
		} else {
			baseOperative = c.Name
		}
	}
	if !strings.Contains(baseScenario, "contended") {
		t.Errorf("good-day scenario ceiling = %q, want the contended one", baseScenario)
	}
	if strings.Contains(baseOperative, "contended") {
		t.Errorf("good-day operative ceiling = %q, should not be contended", baseOperative)
	}

	bad, err := LCLSCoriBadDay()
	if err != nil {
		t.Fatal(err)
	}
	_, limit := bad.Model.Bound(5)
	if !strings.Contains(limit.Name, "contended") {
		t.Errorf("bad-day operative ceiling = %q, want the contended one", limit.Name)
	}
	// Bad-day dot against the bad-day model is near its bound.
	badPt := bad.Points[1]
	eff := bad.Model.Efficiency(badPt)
	if eff < 0.9 || eff > 1.3 {
		t.Errorf("bad-day dot efficiency vs contended bound = %v, want ~1", eff)
	}

	// Same flip on Perlmutter.
	pmContended, err := LCLSPerlmutterContended()
	if err != nil {
		t.Fatal(err)
	}
	_, limit = pmContended.Model.Bound(5)
	if !strings.Contains(limit.Name, "contention") {
		t.Errorf("PM contended operative ceiling = %q", limit.Name)
	}
}

// Scenario ceilings render dashed throughout, distinct from the primary.
func TestScenarioCeilingRendersDashed(t *testing.T) {
	cs, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	svg, err := plot.RooflineSVG(cs.Model, cs.Points, plot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, `stroke-dasharray="7 3"`) {
		t.Error("scenario ceiling should use the 7-3 dash pattern")
	}
	if !strings.Contains(svg, "<polyline") {
		t.Error("primary ceilings should still render solid polylines")
	}
}

// LCLS Gantt from a simulation: five overlapping analysis bars, then the
// merge; the merge is last.
func TestLCLSGanttShape(t *testing.T) {
	cs, err := LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := cs.Workflow.CriticalPathMeasured()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := gantt.FromRecorder("LCLS", res.Recorder, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Bars) != 6 {
		t.Fatalf("bars = %d", len(ch.Bars))
	}
	var merge gantt.Bar
	analysesEnd := 0.0
	for _, b := range ch.Bars {
		if b.Task == "F" {
			merge = b
			continue
		}
		if b.Start != 0 {
			t.Errorf("analysis task %s should start at 0, got %v", b.Task, b.Start)
		}
		if b.End > analysesEnd {
			analysesEnd = b.End
		}
	}
	if merge.Task != "F" {
		t.Fatal("merge bar missing")
	}
	if merge.Start < analysesEnd-1e-9 {
		t.Errorf("merge starts at %v before analyses end at %v", merge.Start, analysesEnd)
	}
}

// All case studies render to SVG with points without error — the wfplot
// path exercised at the library level.
func TestAllCaseStudiesRender(t *testing.T) {
	for _, cs := range paperCases(t) {
		svg, err := plot.RooflineSVG(cs.Model, cs.Points, plot.Options{ShowZones: true})
		if err != nil {
			t.Errorf("%s: %v", cs.Name, err)
			continue
		}
		if !strings.HasPrefix(svg, "<svg") {
			t.Errorf("%s: not an SVG", cs.Name)
		}
		ascii, err := plot.RooflineASCII(cs.Model, cs.Points, 60, 14)
		if err != nil {
			t.Errorf("%s ascii: %v", cs.Name, err)
			continue
		}
		if !strings.Contains(ascii, "|") {
			t.Errorf("%s: ASCII missing the wall", cs.Name)
		}
	}
}

// The case-study CaseStudy.Simulate error path.
func TestCaseStudySimulateNilWorkflow(t *testing.T) {
	cs := &CaseStudy{Name: "broken"}
	if _, err := cs.Simulate(); err == nil {
		t.Error("nil workflow should fail")
	}
}

// The interpretation figures (Fig 2a-2c, Fig 3a-3b) reproduce their
// captions' classifications.
func TestInterpretationFigures(t *testing.T) {
	figs, err := InterpretationFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 5 {
		t.Fatalf("figures = %d, want 5", len(figs))
	}
	byName := map[string]InterpretationFigure{}
	for _, f := range figs {
		byName[f.Name] = f
		if f.Model == nil || f.Caption == "" {
			t.Errorf("%s: incomplete figure", f.Name)
		}
		if err := f.Model.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
		// Every dot is attainable.
		for _, pt := range f.Points {
			bound, _ := f.Model.Bound(pt.ParallelTasks)
			if pt.TPS > bound*1.001 {
				t.Errorf("%s: dot %v exceeds bound %v", f.Name, pt.TPS, bound)
			}
		}
	}
	// Fig 2a has targets and zone shading.
	if !byName["Fig 2a"].ShowZones || byName["Fig 2a"].Model.Targets == nil {
		t.Error("Fig 2a should declare targets and zones")
	}
	// Fig 2b's dot is in the yellow zone and gets both directions.
	f2b := byName["Fig 2b"]
	if zone := f2b.Model.ClassifyZone(f2b.Points[0]); zone != core.ZoneGoodMakespanPoorThroughput {
		t.Errorf("Fig 2b zone = %v, want yellow", zone)
	}
	recs := f2b.Model.Advise(f2b.Points[0])
	feasible := 0
	for _, r := range recs {
		if r.Feasible {
			feasible++
		}
	}
	if feasible < 2 {
		t.Errorf("Fig 2b should motivate two feasible directions, got %+v", recs)
	}
	// Fig 2c halves the wall.
	if byName["Fig 2c"].Model.Wall != 16 {
		t.Errorf("Fig 2c wall = %d, want 16", byName["Fig 2c"].Model.Wall)
	}
	// Fig 3 panels shade by bound class.
	if !byName["Fig 3a"].ShadeBoundClass || !byName["Fig 3b"].ShadeBoundClass {
		t.Error("Fig 3 panels should shade by bound class")
	}
}

// Fig 1's example model: the ceilings and wall carry the figure's exact
// values.
func TestExampleModelFig1(t *testing.T) {
	m, err := ExampleModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.Wall != 28 {
		t.Errorf("wall = %d, want 28", m.Wall)
	}
	if len(m.Ceilings) != 4 {
		t.Fatalf("ceilings = %d, want 4", len(m.Ceilings))
	}
	byRes := map[core.Resource]core.Ceiling{}
	for _, c := range m.Ceilings {
		byRes[c.Resource] = c
	}
	// FS: 1 TB @ 5.6 TB/s -> 5.6 TPS horizontal.
	if got := byRes[core.ResFileSystem].TPSAt(28); got < 5.59 || got > 5.61 {
		t.Errorf("FS ceiling = %v, want 5.6", got)
	}
	// Network: 1 TB @ 100 GB/s -> 0.1 TPS horizontal; it binds at the wall.
	bound, limit := m.BoundAtWall()
	if limit.Resource != core.ResNetwork || bound < 0.099 || bound > 0.101 {
		t.Errorf("bound at wall = %v by %v, want 0.1 by network", bound, limit.Resource)
	}
	// PCIe: 4 GB @ 100 GB/s -> 0.04 s; compute: 100 GFLOP @ 38.8 TFLOPS.
	if got := byRes[core.ResPCIe].TimePerTask; got < 0.0399 || got > 0.0401 {
		t.Errorf("PCIe time = %v, want 0.04", got)
	}
	if got := byRes[core.ResCompute].TimePerTask; got < 0.00257 || got > 0.00259 {
		t.Errorf("compute time = %v, want ~0.00258", got)
	}
}
