package report

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// numReference is Num as first written, on strconv's 'f' format: the
// byte-for-byte reference the fixed-digit implementation must match.
func numReference(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	if av != 0 && (av < 1e-3 || av >= 1e7) {
		return strconv.FormatFloat(v, 'e', 3, 64)
	}
	s := strconv.FormatFloat(v, 'f', 4, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}

// numEdges are the values where the two paths could part: exact halfway
// ties at the fourth decimal (k/32 and k/64 are exact in binary), carries
// that add a digit, the edges of the fixed range, signed zero and the
// non-finite values.
func numEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e-3, 1e7, 0.1, 0.01, 1, 10, 1e6,
		9.99995, 99.99995, 0.99995, 0.099995, 0.0099995, 9999999.99995, 999999.99995,
		0.00015, 0.00025, 0.00125, 1.00005, 2.5e-4, 1234.56785,
	}
	for _, e := range []float64{1e-3, 1e7, 0.1, 0.01, 1, 10, 0.00995, 0.0995, 0.995, 9.99995} {
		edges = append(edges, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
	}
	for k := 1; k < 64*20; k++ {
		edges = append(edges, float64(k)/32, float64(k)/64, float64(k)/64+1e6)
	}
	var out []float64
	for _, v := range edges {
		out = append(out, v, -v)
	}
	return out
}

func TestNumMatchesReferenceEdges(t *testing.T) {
	for _, v := range numEdges() {
		if got, want := Num(v), numReference(v); got != want {
			t.Errorf("Num(%v) = %q, want %q", v, got, want)
		}
	}
}

// numInput draws values across the fixed range and past both edges:
// uniform mantissas over decimal exponents -5..8, values on a 1e-5 grid
// (near the fourth-decimal rounding point), and raw bit patterns.
type numInput float64

func (numInput) Generate(r *rand.Rand, _ int) reflect.Value {
	var v float64
	switch r.Intn(3) {
	case 0:
		v = r.Float64() * math.Pow(10, float64(r.Intn(14)-5))
	case 1:
		v = float64(r.Int63n(1e12)) / 1e5
	default:
		v = math.Float64frombits(r.Uint64())
	}
	if r.Intn(2) == 0 {
		v = -v
	}
	return reflect.ValueOf(numInput(v))
}

// TestNumMatchesReferenceQuick is the property: Num writes exactly the
// reference's bytes for any value.
func TestNumMatchesReferenceQuick(t *testing.T) {
	prop := func(in numInput) bool {
		v := float64(in)
		if got, want := Num(v), numReference(v); got != want {
			t.Logf("Num(%v) = %q, want %q", v, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200000}); err != nil {
		t.Error(err)
	}
}

func FuzzNum(f *testing.F) {
	for _, v := range numEdges() {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if got, want := Num(v), numReference(v); got != want {
			t.Errorf("Num(%v) = %q, want %q", v, got, want)
		}
	})
}
