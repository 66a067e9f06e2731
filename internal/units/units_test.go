package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if TB != 1e12 {
		t.Fatalf("TB = %v, want 1e12", float64(TB))
	}
	if GBPS != 1e9 {
		t.Fatalf("GBPS = %v, want 1e9", float64(GBPS))
	}
	if PFLOP != 1e15 {
		t.Fatalf("PFLOP = %v, want 1e15", float64(PFLOP))
	}
	if TFLOPS != 1e12 {
		t.Fatalf("TFLOPS = %v, want 1e12", float64(TFLOPS))
	}
}

func TestTimeToMove(t *testing.T) {
	cases := []struct {
		b    Bytes
		r    ByteRate
		want Seconds
	}{
		{1 * TB, 1 * GBPS, 1000},
		{5 * TB, 5.6 * TBPS, 5.0 / 5.6},
		{80 * GB, 100 * GBPS, 0.8},
		{0, 0, 0},
		{0, 100 * GBPS, 0},
	}
	for _, c := range cases {
		got := TimeToMove(c.b, c.r)
		if math.Abs(got-c.want) > 1e-12*math.Max(1, c.want) {
			t.Errorf("TimeToMove(%v, %v) = %v, want %v", c.b, c.r, got, c.want)
		}
	}
	if !math.IsInf(TimeToMove(1*GB, 0), 1) {
		t.Errorf("TimeToMove with zero rate should be +Inf")
	}
}

func TestTimeToCompute(t *testing.T) {
	// BGW 64-node node-ceiling check from the paper: (1164+3226) PFLOP over
	// 64 nodes at 38.8 TFLOPS/node is about 1768 s (quoted as ~1800 s).
	perNode := (1164*PFLOP + 3226*PFLOP) / 64
	got := TimeToCompute(perNode, 38.8*TFLOPS)
	if math.Abs(got-1768.0) > 1.0 {
		t.Errorf("BGW 64-node ceiling time = %.2f s, want about 1768 s", got)
	}
	if !math.IsInf(TimeToCompute(1*GFLOP, 0), 1) {
		t.Errorf("TimeToCompute with zero rate should be +Inf")
	}
}

func TestStringFormatting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{(5.6 * TBPS).String(), "5.6 TB/s"},
		{(100 * GBPS).String(), "100 GB/s"},
		{(38.8 * TFLOPS).String(), "38.8 TFLOPS"},
		{(4 * GB).String(), "4 GB"},
		{(45 * MB).String(), "45 MB"},
		{Bytes(0).String(), "0 B"},
		{(910 * GBPS).String(), "910 GB/s"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"4 GB", 4 * GB},
		{"2TB", 2 * TB},
		{"45 MB", 45 * MB},
		{"3344 MB", 3344 * MB},
		{"1024", 1024},
		{"0.5 KB", 500},
		{"1e3 B", 1000},
		{"70 gb", 70 * GB},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-6 {
			t.Errorf("ParseBytes(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
	for _, bad := range []string{"", "GB", "4 XB", "4 G", "4 GiB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) should fail", bad)
		}
	}
}

func TestParseByteRate(t *testing.T) {
	cases := []struct {
		in   string
		want ByteRate
	}{
		{"5.6 TB/s", 5.6 * TBPS},
		{"100 GB/s", 100 * GBPS},
		{"910GB/s", 910 * GBPS},
		{"0.2 GB/s", 0.2 * GBPS},
		{"25 gb/s", 25 * GBPS},
	}
	for _, c := range cases {
		got, err := ParseByteRate(c.in)
		if err != nil {
			t.Errorf("ParseByteRate(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-3 {
			t.Errorf("ParseByteRate(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
	if _, err := ParseByteRate("5.6 TB"); err == nil {
		t.Errorf("ParseByteRate without /s should fail")
	}
}

func TestParseFlops(t *testing.T) {
	cases := []struct {
		in   string
		want Flops
	}{
		{"1164 PFLOP", 1164 * PFLOP},
		{"100 GFLOP", 100 * GFLOP},
		{"3226 PFLOPs", 3226 * PFLOP},
		{"42", 42},
	}
	for _, c := range cases {
		got, err := ParseFlops(c.in)
		if err != nil {
			t.Errorf("ParseFlops(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-3 {
			t.Errorf("ParseFlops(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
}

// Property: formatting then parsing a byte quantity is the identity within
// rounding error introduced by the 3-decimal mantissa.
func TestQuickFormatParseBytes(t *testing.T) {
	f := func(mant uint16, scale uint8) bool {
		v := Bytes(float64(mant)) * Bytes(math.Pow(10, float64(scale%16)))
		s := v.String()
		got, err := ParseBytes(s)
		if err != nil {
			return false
		}
		if v == 0 {
			return got == 0
		}
		rel := math.Abs(float64(got-v)) / float64(v)
		return rel < 5e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TimeToMove is linear in volume and inverse in rate.
func TestQuickTimeToMoveScaling(t *testing.T) {
	f := func(volKB uint32, rateKB uint32, k uint8) bool {
		if rateKB == 0 || k == 0 {
			return true
		}
		b := Bytes(volKB) * KB
		r := ByteRate(rateKB) * KBPS
		kk := float64(k)
		t1 := TimeToMove(b, r)
		t2 := TimeToMove(Bytes(kk)*b, r)
		t3 := TimeToMove(b, ByteRate(kk)*r)
		okLinear := math.Abs(t2-kk*t1) <= 1e-9*math.Max(1, kk*t1)
		okInverse := math.Abs(t3*kk-t1) <= 1e-9*math.Max(1, t1)
		return okLinear && okInverse
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatSubUnit(t *testing.T) {
	s := Bytes(0.5).String()
	if !strings.Contains(s, "B") {
		t.Errorf("sub-unit byte format %q should mention B", s)
	}
}
