package serve

import (
	"bytes"
	"fmt"
	"testing"
)

func TestContentKeyDistinguishesKinds(t *testing.T) {
	body := []byte(`{"kind":"grid"}`)
	if ContentKey("model", body) == ContentKey("sweep", body) {
		t.Error("same body under different kinds must not collide")
	}
	if ContentKey("model", body) != ContentKey("model", body) {
		t.Error("content keys must be deterministic")
	}
}

func TestEtagOf(t *testing.T) {
	tag := etagOf([]byte("hello"))
	if tag != etagOf([]byte("hello")) {
		t.Error("etag not deterministic")
	}
	if tag == etagOf([]byte("world")) {
		t.Error("different bodies share an etag")
	}
	if tag[0] != '"' || tag[len(tag)-1] != '"' {
		t.Errorf("etag %s is not a quoted strong validator", tag)
	}
}

// TestHexKey pins the ETag's wire form: the quoted lowercase hex of the
// body's content address behind a "sha256-" prefix.
func TestHexKey(t *testing.T) {
	k := ContentKey("body", []byte("x"))
	if got, want := etagOf([]byte("x")), fmt.Sprintf(`"sha256-%x"`, k[:]); got != want {
		t.Errorf("etag = %s, want %s", got, want)
	}
}

func TestCanonicalModelRequestNormalizesFormatting(t *testing.T) {
	a := []byte(`{"case":"lcls-cori"}`)
	b := []byte("{\n  \"case\": \"lcls-cori\"\n}")
	_, ca, err := canonicalModelRequest(a)
	if err != nil {
		t.Fatal(err)
	}
	_, cb, err := canonicalModelRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("formatting changed the canonical form:\n%s\n%s", ca, cb)
	}

	// Inline workflows canonicalize too.
	wf := []byte(`{"workflow": {"name": "w",  "partition": "gpu"}}`)
	wf2 := []byte(`{"workflow":{"name":"w","partition":"gpu"}}`)
	_, cw, err := canonicalModelRequest(wf)
	if err != nil {
		t.Fatal(err)
	}
	_, cw2, err := canonicalModelRequest(wf2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw, cw2) {
		t.Errorf("workflow whitespace changed the canonical form:\n%s\n%s", cw, cw2)
	}
}

func TestCanonicalModelRequestRejects(t *testing.T) {
	for name, body := range map[string]string{
		"empty":            `{}`,
		"both":             `{"case":"example","workflow":{}}`,
		"unknown field":    `{"case":"example","bogus":1}`,
		"not json":         `nope`,
		"truncated object": `{"case":`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := canonicalModelRequest([]byte(body)); err == nil {
				t.Errorf("request %q parsed", body)
			}
		})
	}
}

func TestStatusLabel(t *testing.T) {
	for code, want := range map[int]string{200: "200", 404: "404", 503: "503", 42: "other"} {
		if got := statusLabel(code); got != want {
			t.Errorf("statusLabel(%d) = %q, want %q", code, got, want)
		}
	}
}
