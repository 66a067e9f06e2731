package report

import (
	"encoding/csv"
	"strings"
	"testing"
)

func sample(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("Fig 5b", "Scenario", "Loading (s)", "Analysis (s)")
	if err := tb.AddRow("Good days", "1000", "20"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRowf("Bad days", 5000.0, 100.0); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestAddRowValidation(t *testing.T) {
	tb := NewTable("x", "a", "b")
	if err := tb.AddRow("only one"); err == nil {
		t.Error("short row should fail")
	}
	if err := tb.AddRowf("1", "2", "3"); err == nil {
		t.Error("long row should fail")
	}
	if len(tb.rows) != 0 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestAddRowCopies(t *testing.T) {
	tb := NewTable("x", "a")
	cells := []string{"v"}
	if err := tb.AddRow(cells...); err != nil {
		t.Fatal(err)
	}
	cells[0] = "mutated"
	if got := tb.Text(); strings.Contains(got, "mutated") {
		t.Error("AddRow must copy cells")
	}
}

func TestText(t *testing.T) {
	out := sample(t).Text()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Fig 5b" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Scenario") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator line = %q", lines[2])
	}
	// Alignment: "Loading (s)" column starts at the same offset in every row.
	off := strings.Index(lines[1], "Loading")
	if !strings.HasPrefix(lines[3][off:], "1000") {
		t.Errorf("misaligned column:\n%s", out)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sample(t)
	if err := tb.AddRow(`tricky "quoted", cell`, "1", "2"); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(tb.CSV()))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d", len(records))
	}
	if records[3][0] != `tricky "quoted", cell` {
		t.Errorf("quoting lost: %q", records[3][0])
	}
}

func TestMarkdown(t *testing.T) {
	tb := sample(t)
	if err := tb.AddRow("with|pipe", "0", "0"); err != nil {
		t.Fatal(err)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "### Fig 5b") {
		t.Errorf("missing title:\n%s", md)
	}
	if !strings.Contains(md, "| Scenario | Loading (s) | Analysis (s) |") {
		t.Errorf("missing header:\n%s", md)
	}
	if !strings.Contains(md, `with\|pipe`) {
		t.Errorf("pipe not escaped:\n%s", md)
	}
	if !strings.Contains(md, "|---|---|---|") {
		t.Errorf("missing separator:\n%s", md)
	}
}

func TestNum(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		1:        "1",
		0.01:     "0.01",
		5.88e-3:  "0.0059",
		4184.86:  "4184.86",
		1e8:      "1.000e+08",
		0.000123: "1.230e-04",
		-2.5:     "-2.5",
	}
	for v, want := range cases {
		if got := Num(v); got != want {
			t.Errorf("Num(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestHeaders(t *testing.T) {
	tb := sample(t)
	data, err := tb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"headers":["Scenario","Loading (s)","Analysis (s)"]`) {
		t.Errorf("headers not encoded in order: %s", data)
	}
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}
