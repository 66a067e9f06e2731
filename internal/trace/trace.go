// Package trace collects execution spans from simulated or real workflow
// runs and aggregates them into the quantities the Workflow Roofline
// methodology needs: makespan, per-phase time breakdowns (Fig 5b, Fig 10b),
// and per-task windows (Gantt charts, Fig 7d).
package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Span is one timed interval of a task phase.
type Span struct {
	// Task is the owning task id.
	Task string
	// Phase labels what the interval was spent on (e.g. "loading",
	// "analysis", "bash", "python").
	Phase string
	// Start and End are in seconds (virtual time for simulations, wall
	// seconds since run start for real executions).
	Start, End float64
}

// Duration returns End - Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// Recorder accumulates spans. It is safe for concurrent use so the real
// executor (internal/exec) can record from many goroutines; the simulator
// uses it single-threaded.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Validate reports whether the span is well-formed: finite non-NaN
// endpoints in order and a non-empty task id. Recorder.Record applies it to
// every appended span; metrics-only consumers (the simulator's batch
// executor) apply it directly so accepting or rejecting a span never depends
// on whether spans are being stored.
func Validate(s Span) error {
	if math.IsNaN(s.Start) || math.IsNaN(s.End) {
		return fmt.Errorf("trace: span %s/%s has NaN endpoints", s.Task, s.Phase)
	}
	if s.End < s.Start {
		return fmt.Errorf("trace: span %s/%s ends (%v) before it starts (%v)", s.Task, s.Phase, s.End, s.Start)
	}
	if s.Task == "" {
		return fmt.Errorf("trace: span with empty task id")
	}
	return nil
}

// Record appends a span. Spans with negative duration or NaN endpoints are
// rejected.
func (r *Recorder) Record(s Span) error {
	if err := Validate(s); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return nil
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of all spans sorted by (Start, Task, Phase).
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Makespan returns the duration between the earliest start and the latest
// end (0 when empty) — the paper's workflow makespan.
func (r *Recorder) Makespan() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 {
		return 0
	}
	minStart, maxEnd := math.Inf(1), math.Inf(-1)
	for _, s := range r.spans {
		if s.Start < minStart {
			minStart = s.Start
		}
		if s.End > maxEnd {
			maxEnd = s.End
		}
	}
	return maxEnd - minStart
}

// ByPhase sums span durations per phase label, the raw material of the time
// breakdown plots.
func (r *Recorder) ByPhase() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Phase] += s.Duration()
	}
	return out
}

// TaskWindow returns the earliest start and latest end across a task's
// spans; ok is false when the task has none.
func (r *Recorder) TaskWindow(task string) (start, end float64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start, end = math.Inf(1), math.Inf(-1)
	for _, s := range r.spans {
		if s.Task != task {
			continue
		}
		ok = true
		if s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
	}
	if !ok {
		return 0, 0, false
	}
	return start, end, true
}

// Tasks returns the distinct task ids, sorted.
func (r *Recorder) Tasks() []string {
	r.mu.Lock()
	seen := make(map[string]bool)
	for _, s := range r.spans {
		seen[s.Task] = true
	}
	r.mu.Unlock()
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
