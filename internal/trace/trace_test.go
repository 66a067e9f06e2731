package trace

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestRecordAndSpans(t *testing.T) {
	r := NewRecorder()
	spans := []Span{
		{Task: "B", Phase: "compute", Start: 5, End: 8},
		{Task: "A", Phase: "load", Start: 0, End: 5},
		{Task: "A", Phase: "compute", Start: 5, End: 7},
	}
	for _, s := range spans {
		if err := r.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	got := r.Spans()
	if got[0].Task != "A" || got[0].Phase != "load" {
		t.Errorf("first span = %+v, want A/load", got[0])
	}
	if got[1].Task != "A" || got[1].Phase != "compute" {
		t.Errorf("second span = %+v (start ties break by task then phase)", got[1])
	}
}

func TestRecordValidation(t *testing.T) {
	r := NewRecorder()
	bad := []Span{
		{Task: "a", Phase: "p", Start: 5, End: 3},
		{Task: "a", Phase: "p", Start: math.NaN(), End: 3},
		{Task: "a", Phase: "p", Start: 0, End: math.NaN()},
		{Task: "", Phase: "p", Start: 0, End: 1},
	}
	for _, s := range bad {
		if err := r.Record(s); err == nil {
			t.Errorf("Record(%+v) should fail", s)
		}
	}
	// Zero-duration spans are legal (instant events).
	if err := r.Record(Span{Task: "a", Phase: "p", Start: 2, End: 2}); err != nil {
		t.Errorf("zero-duration span rejected: %v", err)
	}
}

func TestMakespan(t *testing.T) {
	r := NewRecorder()
	if r.Makespan() != 0 {
		t.Error("empty makespan should be 0")
	}
	for _, s := range []Span{
		{Task: "A", Phase: "x", Start: 2, End: 10},
		{Task: "B", Phase: "x", Start: 5, End: 30},
		{Task: "C", Phase: "x", Start: 3, End: 8},
	} {
		if err := r.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Makespan(); got != 28 {
		t.Errorf("makespan = %v, want 28 (earliest start 2 to latest end 30)", got)
	}
}

func TestByPhaseAndByTask(t *testing.T) {
	r := NewRecorder()
	// LCLS-like breakdown: loading dominates.
	for _, s := range []Span{
		{Task: "A", Phase: "loading", Start: 0, End: 1000},
		{Task: "B", Phase: "loading", Start: 0, End: 1000},
		{Task: "A", Phase: "analysis", Start: 1000, End: 1020},
		{Task: "B", Phase: "analysis", Start: 1000, End: 1015},
	} {
		if err := r.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	phases := r.ByPhase()
	if phases["loading"] != 2000 || phases["analysis"] != 35 {
		t.Errorf("ByPhase = %v", phases)
	}
	tasks := make(map[string]float64)
	for _, s := range r.Spans() {
		tasks[s.Task] += s.Duration()
	}
	if tasks["A"] != 1020 || tasks["B"] != 1015 {
		t.Errorf("per-task sums = %v", tasks)
	}
}

func TestTaskWindow(t *testing.T) {
	r := NewRecorder()
	for _, s := range []Span{
		{Task: "epsilon", Phase: "compute", Start: 0, End: 490},
		{Task: "sigma", Phase: "compute", Start: 490, End: 1779},
		{Task: "sigma", Phase: "io", Start: 1779, End: 1800},
	} {
		if err := r.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	s, e, ok := r.TaskWindow("sigma")
	if !ok || s != 490 || e != 1800 {
		t.Errorf("sigma window = [%v, %v] ok=%v", s, e, ok)
	}
	if _, _, ok := r.TaskWindow("nope"); ok {
		t.Error("missing task should report !ok")
	}
}

func TestTasksAndFilter(t *testing.T) {
	r := NewRecorder()
	for _, s := range []Span{
		{Task: "b", Phase: "x", Start: 0, End: 1},
		{Task: "a", Phase: "y", Start: 1, End: 2},
		{Task: "b", Phase: "y", Start: 2, End: 3},
	} {
		if err := r.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Tasks(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Tasks = %v", got)
	}
	var ys []Span
	for _, s := range r.Spans() {
		if s.Phase == "y" {
			ys = append(ys, s)
		}
	}
	if len(ys) != 2 {
		t.Errorf("phase y spans = %v", ys)
	}
	if !sort.SliceIsSorted(ys, func(i, j int) bool { return ys[i].Start <= ys[j].Start }) {
		t.Error("filtered spans should stay sorted")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := r.Record(Span{Task: "t", Phase: "p", Start: float64(i), End: float64(i + 1)}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != workers*per {
		t.Errorf("Len = %d, want %d", r.Len(), workers*per)
	}
}

// Property: makespan >= every individual span duration, and the phase sums
// equal the span durations in total.
func TestQuickAggregationConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		r := NewRecorder()
		for i, v := range raw {
			if i >= 50 {
				break
			}
			start := float64(v % 100)
			dur := float64(v%37) + 1
			task := string(rune('a' + i%5))
			phase := string(rune('p' + i%3))
			if err := r.Record(Span{Task: task, Phase: phase, Start: start, End: start + dur}); err != nil {
				return false
			}
		}
		if r.Len() == 0 {
			return true
		}
		mk := r.Makespan()
		total := 0.0
		for _, s := range r.Spans() {
			if s.Duration() > mk+1e-9 {
				return false
			}
			total += s.Duration()
		}
		sumPhase := 0.0
		for _, v := range r.ByPhase() {
			sumPhase += v
		}
		return math.Abs(sumPhase-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
