package sweep

import (
	"math"
	"testing"
)

// allocSamples returns a deterministic, unsorted ensemble of n makespans.
func allocSamples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*7919)%997) + 0.5
	}
	return out
}

// TestSummarizeAllocFloor pins the in-place contract: Summarize sorts
// its argument and allocates nothing. Every ensemble report and every
// streamed snapshot (~64 per request) summarizes this way, so a regression
// here multiplies straight into the serve path.
func TestSummarizeAllocFloor(t *testing.T) {
	src := allocSamples(512)
	samples := make([]float64, len(src))
	allocs := testing.AllocsPerRun(50, func() {
		copy(samples, src) // unsorted again for every run
		if _, err := Summarize(samples); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Summarize allocates %.1f objects/call, want 0", allocs)
	}
}

// TestSummarizerAllocFloor is the same floor for the streaming-prefix path:
// one Summarizer, growing prefixes, zero allocations once the scratch has
// reached the largest prefix.
func TestSummarizerAllocFloor(t *testing.T) {
	samples := allocSamples(512)
	var z Summarizer
	if _, err := z.Summarize(samples); err != nil { // grow the scratch once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, n := range []int{64, 256, 512} { // growing prefixes, as streamed
			if _, err := z.Summarize(samples[:n]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Summarizer.Summarize allocates %.1f objects/call after warmup, want 0", allocs)
	}
}

// TestSummarizerMatchesSummarize proves the scratch reuse never changes the
// numbers: a Summarizer whose scratch still holds a previous, larger sort
// summarizes exactly like Summarize on a fresh copy.
func TestSummarizerMatchesSummarize(t *testing.T) {
	samples := allocSamples(301)
	var z Summarizer
	if _, err := z.Summarize(allocSamples(512)); err != nil { // dirty the scratch
		t.Fatal(err)
	}
	want, err := Summarize(allocSamples(301))
	if err != nil {
		t.Fatal(err)
	}
	got, err := z.Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Summarizer diverged from Summarize:\n got %+v\nwant %+v", got, want)
	}
}

// TestSummarizerRejectsNaN keeps the NaN guard intact through the scratch
// rewrite.
func TestSummarizerRejectsNaN(t *testing.T) {
	var z Summarizer
	if _, err := z.Summarize([]float64{1, math.NaN(), 3}); err == nil {
		t.Error("NaN ensemble accepted")
	}
	if _, err := z.Summarize(nil); err == nil {
		t.Error("empty ensemble accepted")
	}
}
