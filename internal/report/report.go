// Package report renders tabular results as aligned text, CSV, and
// Markdown. The benchmark harness uses it to print the rows each paper
// table and figure reports, and cmd/wroofline uses it for terminal output.
package report

import (
	"fmt"
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

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

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
func Num(v float64) string {
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
