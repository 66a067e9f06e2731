package sweep

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Agg is a streaming, concurrency-safe ensemble aggregator. Workers feed it
// as trials complete — in any order — and it maintains the running count,
// extremes, and a histogram of labels (typically the binding ceiling per
// scenario). Samples are stored by trial index, so Summary is computed in a
// fixed order and is bit-identical regardless of completion order.
type Agg struct {
	mu      sync.Mutex
	samples []float64
	present []bool
	count   int
	min     float64
	max     float64
	hist    map[string]int
	// scratch holds the sorted copy Summary works over. Streaming delivery
	// summarizes the same aggregator once per progress snapshot (~64 times a
	// request), so the buffer is grown once and reused rather than allocated
	// per call.
	scratch []float64
}

// NewAgg creates an aggregator for n trials.
func NewAgg(n int) (*Agg, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sweep: aggregator needs a positive trial count, got %d", n)
	}
	return &Agg{
		samples: make([]float64, n),
		present: make([]bool, n),
		min:     math.Inf(1),
		max:     math.Inf(-1),
		hist:    make(map[string]int),
	}, nil
}

// Add records trial i's value and optional label (e.g. the name of the
// ceiling that bound the scenario). Each trial may be added once; NaN values
// are rejected so percentiles stay well defined.
func (a *Agg) Add(i int, v float64, label string) error {
	if math.IsNaN(v) {
		return fmt.Errorf("sweep: trial %d produced NaN", i)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if i < 0 || i >= len(a.samples) {
		return fmt.Errorf("sweep: trial index %d outside ensemble of %d", i, len(a.samples))
	}
	if a.present[i] {
		return fmt.Errorf("sweep: trial %d added twice", i)
	}
	a.samples[i] = v
	a.present[i] = true
	a.count++
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	if label != "" {
		a.hist[label]++
	}
	return nil
}

// Count returns how many trials have been recorded so far.
func (a *Agg) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count
}

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

// Summary finalizes the aggregate. Every trial must have been added — a
// partial ensemble would silently bias the quantiles.
func (a *Agg) Summary() (Summary, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.count != len(a.samples) {
		return Summary{}, fmt.Errorf("sweep: summary of incomplete ensemble: %d of %d trials recorded",
			a.count, len(a.samples))
	}
	// Mean in trial-index order: a fixed summation order keeps the result
	// bit-identical across worker counts (float addition is not associative).
	sum := 0.0
	for _, v := range a.samples {
		sum += v
	}
	if cap(a.scratch) < len(a.samples) {
		a.scratch = make([]float64, len(a.samples))
	}
	sorted := a.scratch[:len(a.samples)]
	copy(sorted, a.samples)
	sort.Float64s(sorted)
	s := Summary{
		N:    a.count,
		Min:  a.min,
		Max:  a.max,
		Mean: sum / float64(a.count),
		P50:  Quantile(sorted, 50),
		P90:  Quantile(sorted, 90),
		P99:  Quantile(sorted, 99),
	}
	if s.P50 != 0 {
		s.TailRatio = s.P99 / s.P50
	}
	return s, nil
}

// Quantile interpolates the p-quantile (0..100) of ascending samples
// linearly between the two nearest ranks. It is the one quantile rule of
// every ensemble report: Agg and Summarizer summaries and
// contention.Distribution.Percentile all use it. An empty slice yields 0
// rather than a panic: NewAgg rejects n<=0 so Summary never passes one, but
// the guard keeps ad-hoc callers (e.g. failure-ensemble sub-populations that
// may be empty) safe.
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

// Hist returns the label histogram sorted by descending count, ties broken
// by label — a deterministic "which ceiling binds how often" breakdown.
func (a *Agg) Hist() []HistBin {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]HistBin, 0, len(a.hist))
	for label, count := range a.hist {
		out = append(out, HistBin{Label: label, Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	return out
}
