package plot

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"

	"wroofline/internal/breakdown"
	"wroofline/internal/core"
	"wroofline/internal/gantt"
	"wroofline/internal/trace"
	"wroofline/internal/workflow"
)

// wellFormed checks the SVG parses as XML.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG is not well-formed XML: %v\n%s", err, svg[:min(len(svg), 2000)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func testModel() *core.Model {
	m := &core.Model{Title: "Test Roofline", Wall: 28}
	m.AddCeiling(core.Ceiling{Name: "FS 1TB @ 5.6 TB/s", Resource: core.ResFileSystem, Scope: core.ScopeSystem, TimePerTask: 0.1786})
	m.AddCeiling(core.Ceiling{Name: "Compute 100 GFLOP", Resource: core.ResCompute, Scope: core.ScopeNode, TimePerTask: 0.00258})
	m.SetTargets(workflow.Targets{MakespanSeconds: 600, ThroughputTPS: 0.01}, 6)
	return m
}

func TestRooflineSVG(t *testing.T) {
	m := testModel()
	points := []core.Point{{Label: "Good Days", ParallelTasks: 5, TPS: 0.0059, MakespanSeconds: 1020}}
	svg, err := RooflineSVG(m, points, Options{ShowZones: true})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	for _, want := range []string{
		"Test Roofline",
		"parallelism wall: 28",
		"FS 1TB @ 5.6 TB/s",
		"Compute 100 GFLOP",
		"Good Days",
		"Number of Parallel Tasks",
		"target throughput",
		"target makespan",
		"<circle",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestRooflineSVGEscapesXML(t *testing.T) {
	m := &core.Model{Title: `A <b> & "c"`, Wall: 2}
	m.AddCeiling(core.Ceiling{Name: "x<y>&", Scope: core.ScopeSystem, TimePerTask: 1})
	svg, err := RooflineSVG(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	if strings.Contains(svg, "x<y>") {
		t.Error("unescaped angle brackets in output")
	}
}

func TestRooflineSVGInvalidModel(t *testing.T) {
	if _, err := RooflineSVG(&core.Model{Wall: 1}, nil, Options{}); err == nil {
		t.Error("model without ceilings should fail")
	}
}

func TestRooflineSVGExplicitRanges(t *testing.T) {
	m := testModel()
	svg, err := RooflineSVG(m, nil, Options{XMin: 1, XMax: 100, YMin: 0.001, YMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	// Bad explicit ranges must error, not panic.
	if _, err := RooflineSVG(m, nil, Options{XMin: 100, XMax: 100}); err == nil {
		t.Error("degenerate x range should fail")
	}
}

func TestRooflineASCII(t *testing.T) {
	m := testModel()
	points := []core.Point{{Label: "run", ParallelTasks: 5, TPS: 0.0059}}
	out, err := RooflineASCII(m, points, 60, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Test Roofline", "|", "o run", "parallelism wall: 28"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII missing %q:\n%s", want, out)
		}
	}
	// The envelope must contain both a diagonal segment and a horizontal
	// segment (node then system bound).
	if !strings.Contains(out, "/") {
		t.Errorf("ASCII missing node-bound envelope marks:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("ASCII missing system-bound envelope marks:\n%s", out)
	}
	if _, err := RooflineASCII(&core.Model{Wall: 1}, nil, 60, 16); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestLogScale(t *testing.T) {
	s := LogScale{Min: 1, Max: 100, PixMin: 0, PixMax: 200}
	if !s.Valid() {
		t.Fatal("scale should be valid")
	}
	if got := s.Pos(1); got != 0 {
		t.Errorf("Pos(1) = %v", got)
	}
	if got := s.Pos(100); got != 200 {
		t.Errorf("Pos(100) = %v", got)
	}
	if got := s.Pos(10); math.Abs(got-100) > 1e-9 {
		t.Errorf("Pos(10) = %v, want 100 (log midpoint)", got)
	}
	// Clamping.
	if got := s.Pos(0.001); got != 0 {
		t.Errorf("Pos below min = %v", got)
	}
	if got := s.Pos(1e9); got != 200 {
		t.Errorf("Pos above max = %v", got)
	}
	ticks := s.Ticks()
	if len(ticks) != 3 || ticks[0] != 1 || ticks[1] != 10 || ticks[2] != 100 {
		t.Errorf("ticks = %v", ticks)
	}
	bad := LogScale{Min: 0, Max: 10, PixMin: 0, PixMax: 1}
	if bad.Valid() {
		t.Error("zero min should be invalid")
	}
	inverted := LogScale{Min: 1, Max: 10, PixMin: 100, PixMax: 0}
	if got := inverted.Pos(10); got != 0 {
		t.Errorf("inverted Pos(10) = %v", got)
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		1:       "1",
		0.01:    "0.01",
		5.6:     "5.6",
		1000:    "1000",
		10000:   "1e4",
		0.001:   "1e-3",
		1000000: "1e6",
	}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestGanttSVG(t *testing.T) {
	rec := trace.NewRecorder()
	for _, s := range []trace.Span{
		{Task: "epsilon", Phase: "compute", Start: 0, End: 490},
		{Task: "sigma", Phase: "compute", Start: 490, End: 1779},
	} {
		if err := rec.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := gantt.FromRecorder("BGW Gantt", rec, []string{"epsilon", "sigma"})
	if err != nil {
		t.Fatal(err)
	}
	svg, err := GanttSVG(ch, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	for _, want := range []string{"BGW Gantt", "epsilon", "sigma", "Time (s)", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("Gantt SVG missing %q", want)
		}
	}
	if _, err := GanttSVG(&gantt.Chart{}, 0, 0); err == nil {
		t.Error("empty chart should fail")
	}
	if _, err := GanttSVG(nil, 0, 0); err == nil {
		t.Error("nil chart should fail")
	}
}

func TestBreakdownSVG(t *testing.T) {
	ch := breakdown.New("GPTune breakdown", "python", "load data", "bash", "application", "model and search")
	if err := ch.Add("RCI", map[string]float64{"python": 290, "load data": 30, "bash": 210, "application": 13, "model and search": 10}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Add("Spawn", map[string]float64{"python": 205, "load data": 0.02, "application": 13, "model and search": 10}); err != nil {
		t.Fatal(err)
	}
	svg, err := BreakdownSVG(ch, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	for _, want := range []string{"GPTune breakdown", "RCI", "Spawn", "python", "Time (s)"} {
		if !strings.Contains(svg, want) {
			t.Errorf("breakdown SVG missing %q", want)
		}
	}
	if _, err := BreakdownSVG(breakdown.New("e"), 0, 0); err == nil {
		t.Error("empty chart should fail")
	}
}

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(10, 10) // clamped to 64x64
	if c.Width() != 64 || c.Height() != 64 {
		t.Errorf("clamp: %dx%d", c.Width(), c.Height())
	}
	c.Line(0, 0, 10, 10, "red", 1, "2 2")
	c.Rect(1, 1, 5, 5, "blue", "black", 0.5)
	c.Circle(3, 3, 2, "green", "")
	c.Text(1, 1, "hi & <bye>", 10, "black", "middle")
	c.Polyline([]float64{0, 1, 2}, []float64{0, 1, 0}, "gray", 1)
	// A degenerate polyline is dropped, not emitted.
	c.Polyline([]float64{0}, []float64{0}, "gray", 1)
	svg := c.String()
	wellFormed(t, svg)
	for _, want := range []string{"<line", "<rect", "<circle", "<text", "<polyline", "hi &amp; &lt;bye&gt;"} {
		if !strings.Contains(svg, want) {
			t.Errorf("canvas missing %q", want)
		}
	}
	if strings.Count(svg, "<polyline") != 1 {
		t.Error("degenerate polyline should be dropped")
	}
}

func TestFnumHandlesNonFinite(t *testing.T) {
	if fnum(math.NaN()) != "0" || fnum(math.Inf(1)) != "0" {
		t.Error("non-finite pixel values should collapse to 0, not break the SVG")
	}
	if fnum(2.5) != "2.5" || fnum(3) != "3" {
		t.Errorf("fnum formatting: %q %q", fnum(2.5), fnum(3))
	}
}

func TestShadeBoundClass(t *testing.T) {
	m := testModel()
	svg, err := RooflineSVG(m, nil, Options{ShadeBoundClass: true})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	// Both strip colors appear: blue (node bound at small p) and orange
	// (system bound toward the wall).
	if !strings.Contains(svg, "#2a78d6") {
		t.Error("node-bound strips missing")
	}
	if !strings.Contains(svg, "#eb6834") {
		t.Error("system-bound strips missing")
	}
	// Strips are many small rects; without the flag their count drops.
	plain, err := RooflineSVG(m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<rect") <= strings.Count(plain, "<rect")+10 {
		t.Error("bound-class shading should add strip rects")
	}
}
