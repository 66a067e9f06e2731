package sweep

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Summary condenses an ensemble into the figures of merit the contention
// study reports: extremes, mean, the P50/P90/P99 quantiles, and the P99/P50
// tail ratio.
type Summary struct {
	// N is the trial count.
	N int `json:"n"`
	// Min, Max, and Mean summarize the ensemble.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// P50, P90, and P99 are interpolated quantiles.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// TailRatio is P99/P50 (0 when the median is 0).
	TailRatio float64 `json:"tail_ratio"`
}

// Summarize condenses an ensemble's samples into a Summary. It is the one
// summary rule of every ensemble report: the mean is summed in the given
// (trial-index) order, a fixed order that keeps it bit-identical at any
// worker count (float addition is not associative), and the extremes and
// quantiles are read off samples after sorting them in place. Summarize
// therefore reorders its argument: pass a slice the caller owns and no
// longer needs in index order, or use a Summarizer. An empty ensemble, or
// one containing NaN, is an error.
func Summarize(samples []float64) (Summary, error) {
	if len(samples) == 0 {
		return Summary{}, fmt.Errorf("sweep: summary of empty ensemble")
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	sort.Float64s(samples)
	// sort.Float64s treats NaN as less than everything, so any NaN in the
	// ensemble is at the front after sorting.
	if math.IsNaN(samples[0]) {
		return Summary{}, fmt.Errorf("sweep: summary of ensemble containing NaN")
	}
	s := Summary{
		N:    len(samples),
		Min:  samples[0],
		Max:  samples[len(samples)-1],
		Mean: sum / float64(len(samples)),
		P50:  Quantile(samples, 50),
		P90:  Quantile(samples, 90),
		P99:  Quantile(samples, 99),
	}
	if s.P50 != 0 {
		s.TailRatio = s.P99 / s.P50
	}
	return s, nil
}

// Summarizer is Summarize for samples that must keep their order, such as a
// prefix that is summarized again once it has grown: it copies them into a
// reusable scratch buffer and summarizes the copy, so once the buffer has
// reached the largest input, a call allocates nothing. Not safe for
// concurrent use.
type Summarizer struct {
	scratch []float64
}

// Summarize summarizes a copy of samples exactly like the package-level
// Summarize, leaving samples untouched.
func (z *Summarizer) Summarize(samples []float64) (Summary, error) {
	z.scratch = append(z.scratch[:0], samples...)
	return Summarize(z.scratch)
}

// Quantile interpolates the p-quantile (0..100) of ascending samples
// linearly between the two nearest ranks. It is the one quantile rule of
// every ensemble report. An empty slice yields 0 rather than a panic, which
// keeps ad-hoc callers (e.g. failure-ensemble sub-populations that may be
// empty) safe.
func Quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// HistBin is one bar of the label histogram.
type HistBin struct {
	// Label is the recorded label (e.g. a binding ceiling's name); Count is
	// how many trials reported it.
	Label string `json:"label"`
	Count int    `json:"count"`
}

// Hist counts label(i) over trials [0, n) and returns the histogram sorted
// by descending count, ties broken by label — a deterministic "which
// ceiling binds how often" breakdown. Trials whose label is empty are not
// counted.
func Hist(n int, label func(i int) string) []HistBin {
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		if l := label(i); l != "" {
			counts[l]++
		}
	}
	out := make([]HistBin, 0, len(counts))
	for l, c := range counts {
		out = append(out, HistBin{Label: l, Count: c})
	}
	slices.SortFunc(out, func(a, b HistBin) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return cmp.Compare(a.Label, b.Label)
	})
	return out
}
