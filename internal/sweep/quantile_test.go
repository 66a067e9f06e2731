package sweep

import (
	"math"
	"testing"
)

// TestQuantileEmptySlice is the regression test for the missing empty-slice
// guard: Quantile indexed sorted[lo] unconditionally, which panics on an
// empty ensemble.
func TestQuantileEmptySlice(t *testing.T) {
	for _, p := range []float64{0, 50, 99, 100} {
		if got := Quantile(nil, p); got != 0 {
			t.Errorf("Quantile(nil, %v) = %v, want 0", p, got)
		}
		if got := Quantile([]float64{}, p); got != 0 {
			t.Errorf("Quantile(empty, %v) = %v, want 0", p, got)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"single sample", []float64{7}, 99, 7},
		{"median of two", []float64{0, 10}, 50, 5},
		{"exact index", []float64{1, 2, 3, 4, 5}, 50, 3},
		{"interpolated", []float64{0, 10}, 25, 2.5},
		{"p0 is min", []float64{3, 8, 9}, 0, 3},
		{"p100 is max", []float64{3, 8, 9}, 100, 9},
	}
	for _, tc := range cases {
		if got := Quantile(tc.sorted, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}
