package report

import (
	"encoding/json"
	"fmt"
	"unicode/utf8"
)

// The canonical serialized form of a table is
//
//	{"title":"...","headers":["...",...],"rows":[["...",...],...]}
//
// title, headers, then rows in presentation order, with encoding/json's
// string escaping (HTML-safe). Encoding a table twice always yields
// identical bytes, so service responses built from tables are
// content-addressable. Empty header and row sets encode as [] rather than
// null, so clients can index unconditionally.

// AppendJSON appends the table's canonical JSON to b and returns the
// extended buffer. It writes exactly what encoding/json would write for the
// struct {Title string; Headers, Rows} with the same field names, without
// reflection or an intermediate copy.
func (t *Table) AppendJSON(b []byte) []byte {
	b = append(b, `{"title":`...)
	b = AppendString(b, t.Title)
	b = append(b, `,"headers":`...)
	b = appendStrings(b, t.headers)
	b = append(b, `,"rows":[`...)
	for i, row := range t.rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendStrings(b, row)
	}
	return append(b, ']', '}')
}

// JSONLen is the length of the table's canonical JSON, so a caller can
// size one buffer for AppendJSON exactly.
func (t *Table) JSONLen() int {
	n := len(`{"title":,"headers":,"rows":[]}`) + stringLen(t.Title) + stringsLen(t.headers)
	for _, row := range t.rows {
		n += stringsLen(row)
	}
	if len(t.rows) > 1 {
		n += len(t.rows) - 1
	}
	return n
}

// MarshalJSON serializes the table in canonical form.
func (t *Table) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(nil), nil
}

// jsonTable is the decoding form of the canonical table.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// UnmarshalJSON parses a serialized table, validating that every row matches
// the header width.
func (t *Table) UnmarshalJSON(data []byte) error {
	var jt jsonTable
	if err := json.Unmarshal(data, &jt); err != nil {
		return fmt.Errorf("report: decode table: %w", err)
	}
	nt := NewTable(jt.Title, jt.Headers...)
	for _, row := range jt.Rows {
		if err := nt.AddRow(row...); err != nil {
			return err
		}
	}
	*t = *nt
	return nil
}

// appendStrings appends ss as a JSON array of strings; nil encodes as [].
func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// stringsLen is the length appendStrings writes for ss.
func stringsLen(ss []string) int {
	n := 2
	for _, s := range ss {
		n += stringLen(s)
	}
	if len(ss) > 1 {
		n += len(ss) - 1
	}
	return n
}

// asciiEscLen[c] is the encoded length of ASCII byte c inside a JSON
// string: 1 when it is written as is, 2 for a short escape (\" \\ \b \f \n
// \r \t), 6 for \u00XX (the other control bytes, and < > & for HTML
// safety). 0x7f is written as is, as encoding/json does.
var asciiEscLen = func() (l [utf8.RuneSelf]uint8) {
	for c := range l {
		switch {
		case c == '"' || c == '\\' || c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t':
			l[c] = 2
		case c < 0x20 || c == '<' || c == '>' || c == '&':
			l[c] = 6
		default:
			l[c] = 1
		}
	}
	return l
}()

// shortEsc is the letter after the backslash of each two-byte escape.
var shortEsc = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string with exactly encoding/json's
// escaping: HTML-safe (<, > and & as \u003c, \u003e and \u0026), U+2028
// and U+2029 as \u2028 and \u2029, each byte of invalid UTF-8 as \ufffd,
// and control bytes as their short escape or \u00XX.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			switch asciiEscLen[c] {
			case 1:
				i++
				continue
			case 2:
				b = append(b, s[start:i]...)
				b = append(b, '\\', shortEsc[c])
			default:
				b = append(b, s[start:i]...)
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// stringLen is the length AppendString writes for s.
func stringLen(s string) int {
	n := 2
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			n += int(asciiEscLen[c])
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			n += 6
		} else {
			n += size
		}
		i += size
	}
	return n
}
