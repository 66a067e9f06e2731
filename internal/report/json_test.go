package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// refTable is the reflection form the table encoder replaced: encoding/json
// over this struct is the reference AppendJSON must reproduce byte for byte.
type refTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// refJSON encodes title, headers and rows the reference way, with nil
// header and row sets as [] as the canonical form requires.
func refJSON(t *testing.T, title string, headers []string, rows [][]string) []byte {
	t.Helper()
	rt := refTable{Title: title, Headers: headers, Rows: rows}
	if rt.Headers == nil {
		rt.Headers = []string{}
	}
	if rt.Rows == nil {
		rt.Rows = [][]string{}
	}
	data, err := json.Marshal(rt)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkTableJSON builds the table and reports the first way its encodings
// disagree with the reference: AppendJSON onto a non-empty prefix,
// JSONLen, MarshalJSON, and json.Marshal of the table itself.
func checkTableJSON(t *testing.T, title string, headers []string, rows [][]string) string {
	t.Helper()
	tb := NewTable(title, headers...)
	for _, row := range rows {
		if err := tb.AddRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	want := refJSON(t, title, headers, rows)
	prefix := []byte("x,")
	got := tb.AppendJSON(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		return "AppendJSON:\n got  " + string(got[len(prefix):]) + "\n want " + string(want)
	}
	if n := tb.JSONLen(); n != len(want) {
		return fmt.Sprintf("JSONLen %d, encoded length %d", n, len(want))
	}
	if m, err := tb.MarshalJSON(); err != nil || !bytes.Equal(m, want) {
		return "MarshalJSON: " + string(m)
	}
	if m, err := json.Marshal(tb); err != nil || !bytes.Equal(m, want) {
		return "json.Marshal(table): " + string(m)
	}
	return ""
}

// jsonPieces are the fragments quick cells are assembled from: plain text,
// every byte encoding/json escapes, the line and paragraph separators, and
// valid and invalid multi-byte sequences.
var jsonPieces = []string{
	"a", "Zz 9", "p99/p50", "<", ">", "&", `"`, `\`, "\x7f", "\x00", "\b", "\f",
	"\n", "\r", "\t", "\x1f", "\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80\xaa",
	"\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80", "\xff", "\xc3", "\xe2\x80",
	"\xed\xa0\x80", "\xef\xbf\xbd",
}

// jsonCase is the quick generator's table: any column count (zero
// included) and any row count (zero included).
type jsonCase struct {
	Title   string
	Headers []string
	Rows    [][]string
}

func (jsonCase) Generate(r *rand.Rand, size int) reflect.Value {
	cell := func() string {
		var sb strings.Builder
		for n := r.Intn(6); n > 0; n-- {
			if r.Intn(4) == 0 {
				sb.WriteByte(byte(r.Intn(256)))
				continue
			}
			sb.WriteString(jsonPieces[r.Intn(len(jsonPieces))])
		}
		return sb.String()
	}
	c := jsonCase{Title: cell()}
	cols := r.Intn(4)
	if cols > 0 || r.Intn(2) == 0 {
		c.Headers = make([]string, cols)
	}
	for i := range c.Headers {
		c.Headers[i] = cell()
	}
	for i := r.Intn(5); i > 0; i-- {
		row := make([]string, cols)
		for j := range row {
			row[j] = cell()
		}
		c.Rows = append(c.Rows, row)
	}
	return reflect.ValueOf(c)
}

// TestTableJSONMatchesEncodingJSON is the encoder wall's property: for any
// table whose strings mix plain text with every byte and rune encoding/json
// escapes, AppendJSON writes exactly what encoding/json writes for the
// reflection struct, and JSONLen is its length.
func TestTableJSONMatchesEncodingJSON(t *testing.T) {
	property := func(c jsonCase) bool {
		if msg := checkTableJSON(t, c.Title, c.Headers, c.Rows); msg != "" {
			t.Logf("table %q: %s", c, msg)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzTableJSON drives the same comparison from fuzzed strings: the title,
// a header set split on 0x1e, and cells cut from two fuzzed strings.
func FuzzTableJSON(f *testing.F) {
	f.Add("t", "a\x1eb", "<>&", "x", uint8(2))
	f.Add("\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80\xa8\xe2\x80\xa9", "", uint8(1))
	f.Add("\xff\xfe", "\xc3\x28", "\xe2\x80", "\xed\xa0\x80", uint8(3))
	f.Add("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f",
		"\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f", "\x7f", "\x1f\x7f", uint8(2))
	f.Add("quotes", "\"\x1e\\", "a\"b", "c\\d", uint8(2))
	f.Add("html <b>&amp;</b>", "<\x1e>\x1e&", "a<b", "e&f", uint8(1))
	f.Add("", "", "", "", uint8(0))
	f.Add("no rows", "a\x1eb\x1ec", "", "", uint8(0))
	f.Add("zero-width rows", "", "a", "b", uint8(3))
	f.Fuzz(func(t *testing.T, title, headers, a, b string, nrows uint8) {
		var hs []string
		if headers != "" {
			hs = strings.Split(headers, "\x1e")
		}
		var rows [][]string
		for i := 0; i < int(nrows%5); i++ {
			row := make([]string, len(hs))
			for j := range row {
				if (i+j)%2 == 0 {
					row[j] = a[:(i+j)%(len(a)+1)]
				} else {
					row[j] = b
				}
			}
			rows = append(rows, row)
		}
		if msg := checkTableJSON(t, title, hs, rows); msg != "" {
			t.Error(msg)
		}
	})
}
