// Package gantt builds Gantt-chart models from execution spans (the
// paper's Fig 7d) and renders them as text. SVG rendering lives in
// internal/plot.
package gantt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"wroofline/internal/trace"
)

// Bar is one task's contiguous window on the chart.
type Bar struct {
	// Task is the task id.
	Task string
	// Start and End are in seconds.
	Start, End float64
	// OnCriticalPath marks bars belonging to the critical path.
	OnCriticalPath bool
}

// Duration returns End - Start.
func (b Bar) Duration() float64 { return b.End - b.Start }

// Chart is an ordered set of bars (one per task, ordered by start time,
// then task id).
type Chart struct {
	// Title labels the chart.
	Title string
	// Bars holds one bar per task.
	Bars []Bar
	// Makespan is the overall duration.
	Makespan float64
}

// FromRecorder builds a chart from recorded spans, one bar per task
// spanning its earliest start to latest end. criticalPath (optional) marks
// the named tasks.
func FromRecorder(title string, rec *trace.Recorder, criticalPath []string) (*Chart, error) {
	if rec == nil || rec.Len() == 0 {
		return nil, fmt.Errorf("gantt: no spans recorded")
	}
	onCP := make(map[string]bool, len(criticalPath))
	for _, id := range criticalPath {
		onCP[id] = true
	}
	c := &Chart{Title: title, Makespan: rec.Makespan()}
	for _, task := range rec.Tasks() {
		start, end, ok := rec.TaskWindow(task)
		if !ok {
			continue
		}
		c.Bars = append(c.Bars, Bar{Task: task, Start: start, End: end, OnCriticalPath: onCP[task]})
	}
	sort.Slice(c.Bars, func(i, j int) bool {
		if c.Bars[i].Start != c.Bars[j].Start {
			return c.Bars[i].Start < c.Bars[j].Start
		}
		return c.Bars[i].Task < c.Bars[j].Task
	})
	return c, nil
}

// Render draws the chart as fixed-width text, e.g.:
//
//	epsilon  |#####================              |  0.0 - 490.0
//	sigma    |     ###############################| 490.0 - 1779.0
//
// '#' marks critical-path bars, '=' the others. width is the number of
// character cells for the time axis (minimum 10).
func (c *Chart) Render(width int) string {
	if width < 10 {
		width = 10
	}
	if len(c.Bars) == 0 {
		return ""
	}
	minStart, maxEnd := math.Inf(1), math.Inf(-1)
	nameWidth := 0
	for _, b := range c.Bars {
		if b.Start < minStart {
			minStart = b.Start
		}
		if b.End > maxEnd {
			maxEnd = b.End
		}
		if len(b.Task) > nameWidth {
			nameWidth = len(b.Task)
		}
	}
	span := maxEnd - minStart
	if span <= 0 {
		span = 1
	}
	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s (makespan %.4gs)\n", c.Title, c.Makespan)
	}
	for _, b := range c.Bars {
		lo := int(math.Round((b.Start - minStart) / span * float64(width)))
		hi := int(math.Round((b.End - minStart) / span * float64(width)))
		if hi <= lo {
			hi = lo + 1 // always visible
		}
		if hi > width {
			hi = width
		}
		mark := byte('=')
		if b.OnCriticalPath {
			mark = '#'
		}
		row := make([]byte, width)
		for i := range row {
			if i >= lo && i < hi {
				row[i] = mark
			} else {
				row[i] = ' '
			}
		}
		fmt.Fprintf(&sb, "%-*s |%s| %8.1f - %8.1f\n", nameWidth, b.Task, row, b.Start, b.End)
	}
	return sb.String()
}
