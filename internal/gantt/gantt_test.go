package gantt

import (
	"strings"
	"testing"

	"wroofline/internal/trace"
)

func bgwRecorder(t *testing.T) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder()
	for _, s := range []trace.Span{
		{Task: "epsilon", Phase: "compute", Start: 0, End: 490},
		{Task: "sigma", Phase: "compute", Start: 490, End: 1779},
	} {
		if err := rec.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

func TestFromRecorder(t *testing.T) {
	c, err := FromRecorder("BGW 64 nodes", bgwRecorder(t), []string{"epsilon", "sigma"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Bars) != 2 {
		t.Fatalf("bars = %d", len(c.Bars))
	}
	if c.Bars[0].Task != "epsilon" || c.Bars[1].Task != "sigma" {
		t.Errorf("bar order: %+v", c.Bars)
	}
	if c.Bars[0].Duration() != 490 || c.Bars[1].Duration() != 1289 {
		t.Errorf("durations: %v, %v", c.Bars[0].Duration(), c.Bars[1].Duration())
	}
	if c.Makespan != 1779 {
		t.Errorf("makespan = %v", c.Makespan)
	}
	if !c.Bars[0].OnCriticalPath || !c.Bars[1].OnCriticalPath {
		t.Error("both BGW tasks are on the critical path")
	}
}

func TestFromRecorderEmpty(t *testing.T) {
	if _, err := FromRecorder("x", trace.NewRecorder(), nil); err == nil {
		t.Error("empty recorder should fail")
	}
	if _, err := FromRecorder("x", nil, nil); err == nil {
		t.Error("nil recorder should fail")
	}
}

func TestMultiSpanTaskMergesWindow(t *testing.T) {
	rec := trace.NewRecorder()
	for _, s := range []trace.Span{
		{Task: "a", Phase: "load", Start: 0, End: 10},
		{Task: "a", Phase: "compute", Start: 10, End: 30},
	} {
		if err := rec.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	c, err := FromRecorder("x", rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Bars) != 1 || c.Bars[0].Start != 0 || c.Bars[0].End != 30 {
		t.Errorf("bars = %+v", c.Bars)
	}
}

func TestRender(t *testing.T) {
	c, err := FromRecorder("BGW", bgwRecorder(t), []string{"sigma"})
	if err != nil {
		t.Fatal(err)
	}
	out := c.Render(40)
	if !strings.Contains(out, "BGW (makespan 1779s)") {
		t.Errorf("missing title/makespan:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "=") {
		t.Errorf("epsilon row should use '=': %q", lines[1])
	}
	if !strings.Contains(lines[2], "#") {
		t.Errorf("sigma row should use '#': %q", lines[2])
	}
	// Sigma's bar must begin after epsilon's.
	epsStart := strings.IndexAny(lines[1], "=#")
	sigStart := strings.IndexAny(lines[2], "=#")
	if sigStart <= epsStart {
		t.Errorf("sigma bar (%d) should start after epsilon (%d)", sigStart, epsStart)
	}
}

func TestRenderTinyBarsVisible(t *testing.T) {
	rec := trace.NewRecorder()
	for _, s := range []trace.Span{
		{Task: "big", Phase: "x", Start: 0, End: 1000},
		{Task: "tiny", Phase: "x", Start: 500, End: 500.01},
	} {
		if err := rec.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	c, err := FromRecorder("", rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Render(40)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "tiny") && !strings.Contains(line, "=") {
			t.Errorf("tiny bar invisible: %q", line)
		}
	}
}

func TestRenderMinWidthAndEmpty(t *testing.T) {
	c := &Chart{}
	if out := c.Render(5); out != "" {
		t.Errorf("empty chart render = %q", out)
	}
	c2, err := FromRecorder("", bgwRecorder(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := c2.Render(1); out == "" {
		t.Error("tiny width should clamp, not vanish")
	}
}
