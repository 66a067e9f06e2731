package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// --- If-None-Match list / "*" handling (RFC 9110 §13.1.2) ---------------

func TestETagMatch(t *testing.T) {
	const etag = `"sha256-abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{etag, true},
		{`"sha256-other"`, false},
		{`*`, true},
		{` * `, true},
		{`"a", "sha256-abc"`, true},                // list member matches
		{`"sha256-abc", "b"`, true},                // first member matches
		{`"a","b",  "sha256-abc"`, true},           // tight + padded commas
		{`"a", "b"`, false},                        // no member matches
		{"\t" + etag + "\t", true},                 // surrounding whitespace
		{`W/"sha256-abc"`, true},                   // weak member, weak compare
		{`"a", W/"sha256-abc"`, true},              // weak member in a list
		{`"with,comma", "sha256-abc"`, true},       // comma inside opaque-tag
		{`"sha256-ab"`, false},                     // prefix is not a match
		{`sha256-abc`, false},                      // unquoted → malformed, no match
		{`"unterminated`, false},                   // malformed, no match
		{`"a", "unterminated`, false},              // malformed tail, no match
		{``, false},                                // empty header
		{`"a", *`, true},                           // * anywhere matches
		{strings.Repeat(`"x", `, 50) + etag, true}, // long list, match at end
		{strings.Repeat(`"x", `, 50) + `"nope"`, false},
	}
	for _, c := range cases {
		if got := ETagMatch(c.header, etag); got != c.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", c.header, etag, got, c.want)
		}
	}
	if ETagMatch(`"x"`, "") {
		t.Error("empty response ETag matched")
	}
	if !ETagMatch(`"x"`, `W/"x"`) {
		t.Error("weak response ETag must weak-compare against a strong member")
	}
}

// TestConditionalListAndStar drives the fixed matching end to end: a
// comma-separated validator list and "*" both produce 304 where the old
// whole-string comparison returned 200.
func TestConditionalListAndStar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"case":"example"}`
	status, full, hdr := post(t, ts.URL+"/v1/model", body)
	if status != http.StatusOK {
		t.Fatalf("cold request: status %d, body %s", status, full)
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on response")
	}
	for _, header := range []string{
		`"stale-one", ` + etag,
		etag + `, "stale-two"`,
		`*`,
		"  " + etag + "  ",
		`W/` + etag,
	} {
		resp := postConditional(t, ts.URL+"/v1/model", body, header)
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", header, resp.StatusCode)
		}
		if len(data) != 0 {
			t.Errorf("If-None-Match %q: 304 carried %d body bytes", header, len(data))
		}
	}
	// A list of only stale validators must still get the full body.
	resp := postConditional(t, ts.URL+"/v1/model", body, `"stale-one", "stale-two"`)
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("all-stale list: status %d, want 200", resp.StatusCode)
	}
	if string(data) != string(full) {
		t.Error("all-stale list: body differs from cold body")
	}
}

// --- flight waiters honour client cancellation --------------------------

// TestServeCancelledWaiterEndToEnd cancels a coalesced HTTP request
// mid-flight: the waiter's connection must come back promptly (not after
// the leader's full evaluation), and the leader's response and the cache
// fill must be unaffected.
func TestServeCancelledWaiterEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.evalDelay = 500 * time.Millisecond
	body := `{"case":"example"}`

	key, err := ModelKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	inFlight := func() bool {
		_, ok := s.flight.Waiting(key)
		return ok
	}

	leaderDone := make(chan []byte, 1)
	go func() {
		_, data, _ := postNoFatal(ts.URL+"/v1/model", body)
		leaderDone <- data
	}()
	// Wait for the leader to open the flight, then park a cancellable
	// waiter on it.
	for !inFlight() {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/model", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	waiterDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		waiterDone <- err
	}()
	for n, ok := s.flight.Waiting(key); n == 0 && ok; n, ok = s.flight.Waiting(key) {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-waiterDone:
		if err == nil {
			// The waiter may have ridden the flight to completion before the
			// cancel landed; that is a legal race, not a failure.
			t.Log("waiter completed before cancellation landed")
		} else if wait := time.Since(start); wait > 2*time.Second {
			t.Errorf("cancelled waiter took %v to return", wait)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}

	data := <-leaderDone
	if len(data) == 0 {
		t.Fatal("leader got no response")
	}
	// The flight's result made it into the cache despite the cancelled rider.
	status, cached, hdr := post(t, ts.URL+"/v1/model", body)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("post-flight request: status %d X-Cache %q", status, hdr.Get("X-Cache"))
	}
	if string(cached) != string(data) {
		t.Error("cached bytes differ from leader's response")
	}
}

// postNoFatal is post without the test dependency, for goroutines.
func postNoFatal(url, body string) (int, []byte, http.Header) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header
}

// --- statusRecorder pool safety on handler panic ------------------------

// TestInstrumentPanicObservesAndRepanics pins the deferred cleanup path: a
// panicking handler is observed as a 500, the recorder is recycled with its
// ResponseWriter reference cleared, and the panic propagates to the
// server's recovery.
func TestInstrumentPanicObservesAndRepanics(t *testing.T) {
	s := New(Config{})
	st := s.metrics.endpoint("model")
	before500 := st.byStatus[statusSlot(http.StatusInternalServerError)].Load()
	beforeCount := st.count.Load()

	h := s.instrument("model", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	req := httptest.NewRequest("POST", "/v1/model", strings.NewReader(`{}`))

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		h(httptest.NewRecorder(), req)
	}()
	if recovered != "handler exploded" {
		t.Fatalf("recovered %v, want the handler's panic value", recovered)
	}
	if got := st.byStatus[statusSlot(http.StatusInternalServerError)].Load(); got != before500+1 {
		t.Errorf("500 observations = %d, want %d", got, before500+1)
	}
	if got := st.count.Load(); got != beforeCount+1 {
		t.Errorf("request count = %d, want %d", got, beforeCount+1)
	}

	// The pool must hand back recorders with no stale writer attached. Drain
	// a few: the pool is process-global, so at least verify none carries one.
	for i := 0; i < 8; i++ {
		rec := recorderPool.Get().(*statusRecorder)
		if rec.ResponseWriter != nil {
			t.Fatal("pooled recorder still references a ResponseWriter")
		}
		recorderPool.Put(rec)
	}

	// A normal request on the same route still works after the panic.
	rec := httptest.NewRecorder()
	s.instrument("model", s.handleModel)(rec, httptest.NewRequest("POST", "/v1/model", strings.NewReader(`{"case":"example"}`)))
	if rec.Code != http.StatusOK {
		t.Errorf("request after panic: status %d", rec.Code)
	}
}

// --- statusRecorder optional-interface passthrough ----------------------

// flushRecorder is a ResponseWriter that counts Flush calls.
type flushRecorder struct {
	httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// plainWriter implements only the core ResponseWriter interface.
type plainWriter struct{ h http.Header }

func (w *plainWriter) Header() http.Header         { return w.h }
func (w *plainWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *plainWriter) WriteHeader(int)             {}

// TestInstrumentFlushPassthrough asserts the instrumented writer exposes
// http.Flusher and forwards Flush to a supporting inner writer — and stays
// a safe no-op over one that does not.
func TestInstrumentFlushPassthrough(t *testing.T) {
	s := New(Config{})
	inner := &flushRecorder{ResponseRecorder: *httptest.NewRecorder()}
	sawFlusher := false
	h := s.instrument("model", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		sawFlusher = ok
		if ok {
			w.Write([]byte("chunk"))
			f.Flush()
			f.Flush()
		}
	})
	h(inner, httptest.NewRequest("POST", "/v1/model", nil))
	if !sawFlusher {
		t.Fatal("instrumented writer does not expose http.Flusher")
	}
	if inner.flushes != 2 {
		t.Errorf("inner Flush called %d times, want 2", inner.flushes)
	}

	// Non-flushing inner writer: the assertion still succeeds (the wrapper
	// method exists) and calling it must not panic.
	h = s.instrument("model", func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
	})
	h(&plainWriter{h: make(http.Header)}, httptest.NewRequest("POST", "/v1/model", nil))
}

// TestRecorderReadFrom pins the io.ReaderFrom path: bytes copied through
// ReadFrom are counted like Write, against both a ReaderFrom-capable inner
// writer and a plain one.
func TestRecorderReadFrom(t *testing.T) {
	for _, inner := range []http.ResponseWriter{
		httptest.NewRecorder(), // buffers via bytes.Buffer (ReaderFrom through io.Copy)
		&plainWriter{h: make(http.Header)},
	} {
		rec := &statusRecorder{ResponseWriter: inner, status: http.StatusOK}
		n, err := rec.ReadFrom(strings.NewReader("0123456789"))
		if err != nil || n != 10 {
			t.Errorf("%T: ReadFrom = (%d, %v), want (10, nil)", inner, n, err)
		}
		if rec.bytes != 10 {
			t.Errorf("%T: recorder counted %d bytes, want 10", inner, rec.bytes)
		}
	}
	var _ io.ReaderFrom = (*statusRecorder)(nil)
	var _ http.Flusher = (*statusRecorder)(nil)
}

// --- survey cost is bounded per cell ------------------------------------

// TestSweepSurveyHugeWidthIs400: a survey cell is closed-form and capped at
// wfgen.MaxTasks, so a ~150-byte POST asking for a width of 2^40 is a
// client error answered at once, not a multi-gigabyte build that ends in a
// 5xx or a 504.
func TestSweepSurveyHugeWidthIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"kind":"survey","machine":"perlmutter","widths":[1099511627776],"depths":[1],"work":{"flops":"5 TFLOP"}}`
	status, data, _ := post(t, ts.URL+"/v1/sweep", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, data)
	}
	if !strings.Contains(string(data), "bag-of-tasks w=1099511627776 d=1") {
		t.Errorf("body %s does not name the failing cell", data)
	}
}
