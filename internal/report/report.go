// Package report renders tabular results as aligned text, CSV, and
// Markdown. The benchmark harness uses it to print the rows each paper
// table and figure reports, and cmd/wroofline uses it for terminal output.
package report

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is a simple column-ordered table.
type Table struct {
	// Title labels the table (printed above text renderings).
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; the cell count must match the header count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.headers) {
		return fmt.Errorf("report: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.headers))
	}
	row := make([]string, len(cells))
	copy(row, cells)
	t.rows = append(t.rows, row)
	return nil
}

// AddRowf appends a row formatting each value with %v, numbers via Num.
func (t *Table) AddRowf(values ...any) error {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = Num(x)
		case float32:
			cells[i] = Num(float64(x))
		case string:
			cells[i] = x
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	return t.AddRow(cells...)
}

// Num formats a float compactly: up to four significant digits, scientific
// notation outside [1e-3, 1e7).
//
// Inside the range the value is rounded to four decimals, trailing zeros
// dropped. strconv's 'f' format with a precision always takes its
// arbitrary-precision path, so the same rounding is asked of the
// fixed-digit 'e' path instead: as many significant digits as reach the
// fourth decimal, then laid out around the point.
func Num(v float64) string {
	av := math.Abs(v)
	if av != 0 && (av < 1e-3 || av >= 1e7) {
		return strconv.FormatFloat(v, 'e', 3, 64)
	}
	if av == 0 || av != av {
		// Zero keeps its sign and NaN has no digits; the shortest form
		// spells both as the trimmed four-decimal form does.
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	// intDigits is the decimal exponent plus one: how many digits the value
	// has before the point (zero or fewer below 1). The double nearest each
	// of 0.1 and 0.01 lies above it, so the comparisons are exact.
	var intDigits int
	switch {
	case av >= 1:
		intDigits = 1
		for n := uint64(av); n >= 10; n /= 10 {
			intDigits++
		}
	case av >= 0.1:
		intDigits = 0
	case av >= 0.01:
		intDigits = -1
	default:
		intDigits = -2
	}
	var dbuf [32]byte
	d := strconv.AppendFloat(dbuf[:0], av, 'e', intDigits+3, 64)
	// d is "D.DDDe±XX"; gather the digits and read the exponent, which is
	// intDigits-1, or intDigits when rounding carried into a new digit.
	e := bytes.IndexByte(d, 'e')
	exp, _ := strconv.Atoi(string(d[e+1:]))
	copy(d[1:], d[2:e])
	digits := d[:e-1]

	var out [32]byte
	s := out[:0]
	if v < 0 {
		s = append(s, '-')
	}
	if point := exp + 1; point > 0 {
		s = append(s, digits[:point]...)
		s = append(s, '.')
		s = append(s, digits[point:]...)
	} else {
		s = append(s, '0', '.')
		for ; point < 0; point++ {
			s = append(s, '0')
		}
		s = append(s, digits...)
	}
	s = bytes.TrimRight(s, "0")
	s = bytes.TrimSuffix(s, []byte("."))
	return string(s)
}

// Text renders the table with aligned columns.
func (t *Table) Text() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Render dispatches on a format name: "table" (aligned text), "csv", or
// "markdown" — the shared switch behind every CLI's -format flag.
func (t *Table) Render(format string) (string, error) {
	switch format {
	case "", "table", "text":
		return t.Text(), nil
	case "csv":
		return t.CSV(), nil
	case "markdown", "md":
		return t.Markdown(), nil
	default:
		return "", fmt.Errorf("report: unknown format %q (want table, csv, or markdown)", format)
	}
}

// CSV renders the table as RFC-4180-ish CSV (quotes applied when needed).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "### %s\n\n", t.Title)
	}
	escape := func(c string) string {
		return strings.ReplaceAll(c, "|", `\|`)
	}
	sb.WriteString("|")
	for _, h := range t.headers {
		sb.WriteString(" " + escape(h) + " |")
	}
	sb.WriteString("\n|")
	for range t.headers {
		sb.WriteString("---|")
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		sb.WriteString("|")
		for _, c := range row {
			sb.WriteString(" " + escape(c) + " |")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
