package sweep

import (
	"math"
	"reflect"
	"testing"
)

// TestSummarize pins the one summary rule: quantiles from a known
// distribution, the empty error, and NaN detection.
func TestSummarize(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(99 - i) // reversed, so sorting matters
	}
	s, err := Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 100 || s.Min != 0 || s.Max != 99 {
		t.Errorf("n/min/max = %d/%v/%v, want 100/0/99", s.N, s.Min, s.Max)
	}
	if s.Mean != 49.5 {
		t.Errorf("mean = %v, want 49.5", s.Mean)
	}
	if s.P50 < 45 || s.P50 > 55 || s.P99 < 95 {
		t.Errorf("quantiles off: p50=%v p99=%v", s.P50, s.P99)
	}
	if s.TailRatio <= 1 {
		t.Errorf("tail ratio = %v, want > 1 for a spread distribution", s.TailRatio)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, err := Summarize([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN sample accepted")
	}
}

// TestSummarizeSortsInPlaceAndSumsInIndexOrder pins the two halves of the
// contract: the argument comes back sorted, and the mean is the index-order
// sum. The samples are chosen so the two orders round differently: in
// index order 1+1 survives the 1e16 swing (mean 0.5), while in sorted
// order each 1 is lost against -1e16 (mean 0).
func TestSummarizeSortsInPlaceAndSumsInIndexOrder(t *testing.T) {
	samples := []float64{1, 1, 1e16, -1e16}
	s, err := Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{-1e16, 1, 1, 1e16}; !reflect.DeepEqual(samples, want) {
		t.Errorf("samples after Summarize = %v, want sorted %v", samples, want)
	}
	if s.Mean != 0.5 {
		t.Errorf("mean = %v, want 0.5 (index-order sum)", s.Mean)
	}
}

// TestSummarizerLeavesInputUnchanged pins the copying face: a caller that
// summarizes a prefix again later (a replayed progress stream) relies on
// its samples keeping their order.
func TestSummarizerLeavesInputUnchanged(t *testing.T) {
	samples := []float64{3, 1, 2, 1e16, -1e16}
	orig := append([]float64(nil), samples...)
	var z Summarizer
	if _, err := z.Summarize(samples); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples, orig) {
		t.Errorf("Summarizer reordered its input: %v, want %v", samples, orig)
	}
}

// TestHist pins the histogram order (count descending, ties by label) and
// that empty labels are not counted.
func TestHist(t *testing.T) {
	labels := []string{"b", "a", "", "c", "b", "a", "", "c", "c"}
	got := Hist(len(labels), func(i int) string { return labels[i] })
	want := []HistBin{{"c", 3}, {"a", 2}, {"b", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hist = %+v, want %+v", got, want)
	}
	if got := Hist(3, func(int) string { return "" }); len(got) != 0 {
		t.Errorf("all-empty labels gave %+v, want no bins", got)
	}
}
