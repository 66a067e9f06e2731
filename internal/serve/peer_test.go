package serve

import (
	"bytes"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newPeerPair builds two servers where b lists a as a peer, so b may fill
// from a when a request carries the X-Peer-Owner header naming a.
func newPeerPair(t *testing.T) (a, b *Server, aURL, bURL string) {
	t.Helper()
	sa := New(Config{})
	tsa := httptest.NewServer(sa.Handler())
	t.Cleanup(tsa.Close)
	sb := New(Config{Peers: []string{tsa.URL}})
	tsb := httptest.NewServer(sb.Handler())
	t.Cleanup(tsb.Close)
	return sa, sb, tsa.URL, tsb.URL
}

// postOwned sends a body with an X-Peer-Owner header.
func postOwned(t *testing.T, url, body, owner string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if owner != "" {
		req.Header.Set(PeerOwnerHeader, owner)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPeerFillServesOwnersBytes is the peer cache-fill contract: replica B,
// asked for a spec replica A already rendered, serves A's exact bytes via
// one fill fetch — zero local evaluations, X-Cache: peer, and the fill
// lands in B's cache so the next request is a plain local hit.
func TestPeerFillServesOwnersBytes(t *testing.T) {
	sa, sb, aURL, _ := newPeerPair(t)
	_, tsb := sb, httptest.NewServer(sb.Handler())
	defer tsb.Close()
	body := `{"case":"example"}`

	// Warm the owner.
	status, ownerBytes, _ := post(t, aURL+"/v1/model", body)
	if status != http.StatusOK {
		t.Fatalf("owner cold request: status %d", status)
	}

	resp, data := postOwned(t, tsb.URL+"/v1/model", body, aURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-filled request: status %d, body %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Cache"); got != "peer" {
		t.Errorf("X-Cache = %q, want peer", got)
	}
	if !bytes.Equal(data, ownerBytes) {
		t.Error("peer-filled bytes differ from owner's")
	}
	if got := sb.Evaluations(); got != 0 {
		t.Errorf("filling replica evaluated %d times, want 0", got)
	}
	if got := sb.MetricsSnapshot().PeerFills; got != 1 {
		t.Errorf("peer_fills = %d, want 1", got)
	}
	if got := sa.Evaluations(); got != 1 {
		t.Errorf("owner evaluations = %d, want 1", got)
	}

	// The fill populated B's cache: replaying without the header is a hit.
	resp2, data2 := postOwned(t, tsb.URL+"/v1/model", body, "")
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("replay X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data2, ownerBytes) {
		t.Error("replayed bytes differ from owner's")
	}
}

// TestPeerFillFallsBackToLocalEval covers the degraded paths: an owner
// that has nothing cached, an owner that is down, and an owner not on the
// allowlist all degrade to a normal local evaluation, never an error.
func TestPeerFillFallsBackToLocalEval(t *testing.T) {
	sa, sb, aURL, bURL := newPeerPair(t)
	_ = sa

	// Owner up but cold: fill misses (404), B evaluates locally.
	resp, data := postOwned(t, bURL+"/v1/model", `{"case":"example"}`, aURL)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "cold" {
		t.Fatalf("cold-owner fallback: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if len(data) == 0 || sb.Evaluations() != 1 {
		t.Fatalf("cold-owner fallback: evals=%d", sb.Evaluations())
	}

	// Unlisted owner: the header is ignored outright (no SSRF vector).
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("server fetched from an unlisted origin")
	}))
	defer evil.Close()
	resp, _ = postOwned(t, bURL+"/v1/model", `{"case":"lcls-cori"}`, evil.URL)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "cold" {
		t.Errorf("unlisted-owner fallback: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// Dead owner: connection refused degrades to local evaluation.
	deadOwner := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadOwner.URL
	deadOwner.Close()
	sc := New(Config{Peers: []string{deadURL}})
	tsc := httptest.NewServer(sc.Handler())
	defer tsc.Close()
	resp, _ = postOwned(t, tsc.URL+"/v1/model", `{"case":"example"}`, deadURL)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "cold" {
		t.Errorf("dead-owner fallback: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
}

// TestPeerFillEndpoint pins the inbound API: hex key lookup, 404 on
// unknown keys, 400 on malformed keys.
func TestPeerFillEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"case":"example"}`
	_, full, hdr := post(t, ts.URL+"/v1/model", body)
	key, err := ModelKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}

	status, got, fillHdr := get(t, ts.URL+PeerFillPath+hex.EncodeToString(key[:]))
	if status != http.StatusOK {
		t.Fatalf("fill status = %d", status)
	}
	if !bytes.Equal(got, full) {
		t.Error("fill bytes differ from the rendered response")
	}
	if fillHdr.Get("ETag") != hdr.Get("ETag") {
		t.Errorf("fill ETag %q != response ETag %q", fillHdr.Get("ETag"), hdr.Get("ETag"))
	}

	var missing Key
	missing[0] = 0xFF
	if status, _, _ := get(t, ts.URL+PeerFillPath+hex.EncodeToString(missing[:])); status != http.StatusNotFound {
		t.Errorf("unknown key status = %d, want 404", status)
	}
	if status, _, _ := get(t, ts.URL+PeerFillPath+"zzzz"); status != http.StatusBadRequest {
		t.Errorf("malformed key status = %d, want 400", status)
	}
	if s.Evaluations() != 1 {
		t.Errorf("fill endpoint evaluated: %d evals", s.Evaluations())
	}
}

// TestKeyHelpers round-trips the hex wire form and pins that the exported
// key functions agree with the serving path's cache keys (the gate routes
// on them).
func TestKeyHelpers(t *testing.T) {
	body := []byte(`{"case":"example"}`)
	k1, err := ModelKey(body)
	if err != nil {
		t.Fatal(err)
	}
	// Formatting-only variants share a canonical key.
	k2, err := ModelKey([]byte(`{ "case" : "example" }`))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("formatting variants produced distinct model keys")
	}
	rt, err := ParseHexKey(hex.EncodeToString(k1[:]))
	if err != nil || rt != k1 {
		t.Errorf("hex round-trip: %v, equal=%v", err, rt == k1)
	}
	if _, err := ParseHexKey("abcd"); err == nil {
		t.Error("short hex key parsed")
	}
	if _, err := ModelKey([]byte(`{`)); err == nil {
		t.Error("malformed model body produced a key")
	}
	if _, err := SweepKey([]byte(`{"bogus_field":1}`)); err == nil {
		t.Error("sweep spec with unknown fields produced a key")
	}
	spec := `{"kind":"montecarlo","case":"lcls-cori","trials":8,"seed":3,` +
		`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`
	if _, err := SweepKey([]byte(spec)); err != nil {
		t.Errorf("valid sweep spec rejected: %v", err)
	}
	if FigureKey("example.svg") == FigureKey("other.svg") {
		t.Error("distinct figures share a key")
	}
}
