// Package units provides typed physical quantities used throughout the
// workflow roofline toolkit: byte counts, byte rates (bandwidth),
// floating-point operation counts, and floating-point rates.
//
// All quantities are SI-decimal (1 KB = 1e3 B, 1 TFLOP = 1e12 FLOP) to match
// the arithmetic in the Workflow Roofline paper (e.g. 4 x 9.7 TFLOPS = 38.8
// TFLOPS per Perlmutter GPU node, 14 x 4 x 100 GB/s = 5.6 TB/s file-system
// peak). Durations are float64 seconds, which is the natural unit when
// dividing work by a peak rate.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bytes is a data volume in bytes. It is a float64 so analytical models may
// express fractional averages (e.g. bytes per sample).
type Bytes float64

// ByteRate is a bandwidth in bytes per second.
type ByteRate float64

// Flops is a count of floating-point operations.
type Flops float64

// FlopRate is a floating-point execution rate in FLOP per second.
type FlopRate float64

// SI-decimal byte multiples.
const (
	B  Bytes = 1
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
	PB Bytes = 1e15
	EB Bytes = 1e18
)

// SI-decimal byte-rate multiples.
const (
	BPS  ByteRate = 1
	KBPS ByteRate = 1e3
	MBPS ByteRate = 1e6
	GBPS ByteRate = 1e9
	TBPS ByteRate = 1e12
	PBPS ByteRate = 1e15
)

// SI-decimal FLOP multiples.
const (
	FLOP  Flops = 1
	KFLOP Flops = 1e3
	MFLOP Flops = 1e6
	GFLOP Flops = 1e9
	TFLOP Flops = 1e12
	PFLOP Flops = 1e15
	EFLOP Flops = 1e18
)

// SI-decimal FLOP-rate multiples.
const (
	FLOPS  FlopRate = 1
	KFLOPS FlopRate = 1e3
	MFLOPS FlopRate = 1e6
	GFLOPS FlopRate = 1e9
	TFLOPS FlopRate = 1e12
	PFLOPS FlopRate = 1e15
	EFLOPS FlopRate = 1e18
)

// siPrefixes are ordered largest first for formatting.
var siPrefixes = []struct {
	symbol string
	factor float64
}{
	{"E", 1e18},
	{"P", 1e15},
	{"T", 1e12},
	{"G", 1e9},
	{"M", 1e6},
	{"K", 1e3},
	{"", 1},
}

// formatSI renders v with the largest SI prefix that keeps the mantissa >= 1,
// using up to three significant decimals and trimming trailing zeros.
func formatSI(v float64, unit string) string {
	if v == 0 {
		return "0 " + unit
	}
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	for _, p := range siPrefixes {
		if v >= p.factor {
			m := v / p.factor
			s := strconv.FormatFloat(m, 'f', 3, 64)
			s = strings.TrimRight(s, "0")
			s = strings.TrimRight(s, ".")
			return neg + s + " " + p.symbol + unit
		}
	}
	// Sub-unit values: print raw.
	s := strconv.FormatFloat(v, 'g', 4, 64)
	return neg + s + " " + unit
}

// String renders the byte count with an SI prefix, e.g. "5.6 TB".
func (b Bytes) String() string { return formatSI(float64(b), "B") }

// String renders the rate with an SI prefix, e.g. "100 GB/s".
func (r ByteRate) String() string { return formatSI(float64(r), "B/s") }

// String renders the FLOP count with an SI prefix, e.g. "1164 PFLOP" prints
// as "1.164 EFLOP".
func (f Flops) String() string { return formatSI(float64(f), "FLOP") }

// String renders the rate with an SI prefix, e.g. "38.8 TFLOPS".
func (r FlopRate) String() string { return formatSI(float64(r), "FLOPS") }

// Seconds is a convenience alias for durations expressed as float64 seconds,
// the natural result of dividing work by a peak rate.
type Seconds = float64

// TimeToMove returns the seconds needed to move b bytes at rate r.
// It returns +Inf when the rate is zero and the volume is positive, and 0
// when the volume is zero (even at zero rate).
func TimeToMove(b Bytes, r ByteRate) Seconds {
	return divideWork(float64(b), float64(r))
}

// TimeToCompute returns the seconds needed to execute f FLOPs at rate r,
// with the same zero/zero conventions as TimeToMove.
func TimeToCompute(f Flops, r FlopRate) Seconds {
	return divideWork(float64(f), float64(r))
}

func divideWork(work, rate float64) Seconds {
	if work == 0 {
		return 0
	}
	if rate == 0 {
		return math.Inf(1)
	}
	return work / rate
}

// parse splits a quantity string like "5.6 TB/s" into value 5.6e12 given the
// base unit ("B/s"). Accepted forms: optional whitespace between mantissa and
// unit, case-insensitive prefix and unit, and an optional "i" (binary) prefix
// is rejected since the toolkit is SI-decimal only.
func parse(s, unit string) (float64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty quantity")
	}
	// Find the split point between the numeric mantissa and the unit text.
	i := 0
	for i < len(t) {
		c := t[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == 'e' || c == 'E' {
			// "E" is both an exponent marker and the exa prefix. Treat a
			// trailing E followed by a letter (unit text) as the prefix.
			if c == 'e' || c == 'E' {
				if i+1 < len(t) {
					n := t[i+1]
					if (n >= '0' && n <= '9') || n == '+' || n == '-' {
						i++
						continue
					}
				}
				break
			}
			i++
			continue
		}
		break
	}
	mantissa := strings.TrimSpace(t[:i])
	rest := strings.TrimSpace(t[i:])
	if mantissa == "" {
		return 0, fmt.Errorf("units: %q has no numeric value", s)
	}
	v, err := strconv.ParseFloat(mantissa, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad number in %q: %w", s, err)
	}
	if rest == "" {
		return v, nil // bare number: base unit
	}
	lu := strings.ToLower(unit)
	lr := strings.ToLower(rest)
	if !strings.HasSuffix(lr, lu) {
		return 0, fmt.Errorf("units: %q does not end in unit %q", s, unit)
	}
	prefix := strings.TrimSpace(lr[:len(lr)-len(lu)])
	factor := siFactor(prefix)
	if factor == 0 {
		return 0, fmt.Errorf("units: unknown SI prefix %q in %q", prefix, s)
	}
	return v * factor, nil
}

// siFactor maps a lower-case SI prefix to its multiplier, 0 when unknown.
func siFactor(prefix string) float64 {
	switch prefix {
	case "":
		return 1
	case "k":
		return 1e3
	case "m":
		return 1e6
	case "g":
		return 1e9
	case "t":
		return 1e12
	case "p":
		return 1e15
	case "e":
		return 1e18
	}
	return 0
}

// ParseBytes parses strings like "4 GB", "2TB", "45 MB", or "1024" (bare
// numbers are bytes).
func ParseBytes(s string) (Bytes, error) {
	v, err := parse(s, "B")
	return Bytes(v), err
}

// ParseByteRate parses strings like "5.6 TB/s", "100 GB/s", or "910GB/s".
func ParseByteRate(s string) (ByteRate, error) {
	v, err := parse(s, "B/s")
	return ByteRate(v), err
}

// ParseFlops parses strings like "1164 PFLOP", "100 GFLOP", or bare FLOP
// counts. The plural "FLOPs" spelling is also accepted.
func ParseFlops(s string) (Flops, error) {
	t := strings.TrimSpace(s)
	lower := strings.ToLower(t)
	if strings.HasSuffix(lower, "flops") {
		t = t[:len(t)-1] // drop plural 's' so the unit is "FLOP"
	}
	v, err := parse(t, "FLOP")
	return Flops(v), err
}
