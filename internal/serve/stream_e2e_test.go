package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// streamTrialsSpec builds a fresh montecarlo spec; callers vary trials (and
// optionally seed) to control evaluation length and cache identity.
func streamTrialsSpec(trials int, seed uint64) string {
	return fmt.Sprintf(`{"kind":"montecarlo","case":"lcls-cori","trials":%d,"seed":%d,"batch":16,`+
		`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`, trials, seed)
}

// progressEvent decodes the NDJSON/SSE progress payloads.
type progressEvent struct {
	Event   string `json:"event"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Summary struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
		P99  float64 `json:"p99"`
	} `json:"summary"`
}

// streamLines POSTs a body with the given Accept header and returns the
// response plus all lines read until EOF.
func streamLines(t *testing.T, url, body, accept string) (*http.Response, []string) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return resp, lines
}

// TestSweepStreamDifferential is the tentpole identity contract: the final
// NDJSON line of a cold /v1/sweep/stream response is byte-identical to the
// buffered /v1/sweep body for the same spec, the preceding progress events
// are strictly increasing prefixes, and the stream fills the same cache.
func TestSweepStreamDifferential(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := streamTrialsSpec(192, 21)

	status, buffered, _ := post(t, ts.URL+"/v1/sweep", spec)
	if status != http.StatusOK {
		t.Fatalf("buffered status %d: %s", status, buffered)
	}
	s.FlushCache()

	resp, lines := streamLines(t, ts.URL+"/v1/sweep/stream", spec, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != ContentTypeNDJSON {
		t.Errorf("Content-Type = %q, want %q", got, ContentTypeNDJSON)
	}
	if got := resp.Header.Get("X-Cache"); got != "cold" {
		t.Errorf("X-Cache = %q, want cold", got)
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want progress + result", len(lines))
	}

	// Final line: the exact buffered bytes (the buffered body ends in \n,
	// which the line scanner strips).
	wantFinal := strings.TrimSuffix(string(buffered), "\n")
	if lines[len(lines)-1] != wantFinal {
		t.Errorf("final stream line differs from buffered body:\n%s\nvs\n%s",
			lines[len(lines)-1], wantFinal)
	}

	prevDone := 0
	for _, line := range lines[:len(lines)-1] {
		var p progressEvent
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("progress line is not JSON: %q: %v", line, err)
		}
		if p.Event != "progress" || p.Total != 192 {
			t.Errorf("bad progress event: %+v", p)
		}
		if p.Done <= prevDone || p.Done >= p.Total {
			t.Errorf("done = %d after %d, want strictly increasing below total", p.Done, prevDone)
		}
		if p.Summary.N != p.Done {
			t.Errorf("summary n = %d, done = %d", p.Summary.N, p.Done)
		}
		prevDone = p.Done
	}

	// The stream populated the shared cache: a buffered request is now a
	// hit with the same bytes.
	status, cached, hdr := post(t, ts.URL+"/v1/sweep", spec)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("post-stream buffered request: status %d X-Cache %q, want 200 hit",
			status, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(cached, buffered) {
		t.Error("cache filled by the stream differs from the buffered rendering")
	}
}

// TestSweepStreamCachedSingleEvent checks a warm-cache stream: exactly one
// line (the result), X-Cache hit, no evaluation.
func TestSweepStreamCachedSingleEvent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := streamTrialsSpec(32, 5)
	_, buffered, _ := post(t, ts.URL+"/v1/sweep", spec)
	evals := s.Evaluations()

	resp, lines := streamLines(t, ts.URL+"/v1/sweep/stream", spec, "")
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q, want hit", got)
	}
	if len(lines) != 1 {
		t.Fatalf("cached stream produced %d lines, want exactly 1", len(lines))
	}
	if lines[0] != strings.TrimSuffix(string(buffered), "\n") {
		t.Error("cached stream result differs from buffered body")
	}
	if got := s.Evaluations(); got != evals {
		t.Errorf("cached stream ran %d extra evaluations", got-evals)
	}
}

// TestSweepStreamAcceptNegotiation checks /v1/sweep itself streams when the
// client asks for NDJSON, and stays buffered JSON otherwise.
func TestSweepStreamAcceptNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := streamTrialsSpec(64, 6)

	resp, lines := streamLines(t, ts.URL+"/v1/sweep", spec, ContentTypeNDJSON)
	if got := resp.Header.Get("Content-Type"); got != ContentTypeNDJSON {
		t.Errorf("negotiated Content-Type = %q, want %q", got, ContentTypeNDJSON)
	}
	if len(lines) == 0 {
		t.Fatal("negotiated stream produced no lines")
	}

	status, _, hdr := post(t, ts.URL+"/v1/sweep", spec)
	if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Errorf("plain request: status %d Content-Type %q, want buffered JSON",
			status, hdr.Get("Content-Type"))
	}
}

// TestSweepStreamSSEFraming checks the SSE wire format: event-typed frames,
// and a result frame whose data is the canonical buffered body.
func TestSweepStreamSSEFraming(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := streamTrialsSpec(128, 8)
	_, buffered, _ := post(t, ts.URL+"/v1/sweep", spec)
	s.FlushCache()

	resp, lines := streamLines(t, ts.URL+"/v1/sweep", spec, ContentTypeSSE)
	if got := resp.Header.Get("Content-Type"); got != ContentTypeSSE {
		t.Fatalf("Content-Type = %q, want %q", got, ContentTypeSSE)
	}
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "event: progress\ndata: ") {
		t.Error("no SSE progress frame")
	}
	idx := strings.Index(text, "event: result\ndata: ")
	if idx < 0 {
		t.Fatal("no SSE result frame")
	}
	data := text[idx+len("event: result\ndata: "):]
	if nl := strings.IndexByte(data, '\n'); nl >= 0 {
		data = data[:nl]
	}
	if data != strings.TrimSuffix(string(buffered), "\n") {
		t.Error("SSE result data differs from buffered body")
	}
}

// TestSweepStreamFrameBudget pins the frame budget on the scan workload's
// corpus request: a 30-scenario CV=0 corpus, served from the plan cache
// after a warm request, streams exactly one progress event (the throttle
// spends at least 64 trials on a frame) and then a result byte-identical to
// the buffered body, over NDJSON and over SSE.
func TestSweepStreamFrameBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const corpus = `{"kind":"corpus","machine":"perlmutter-numa","count":30,"seed":%d,` +
		`"template":{"width":5,"depth":3,"payload":"512 MB"}}`
	if status, body, _ := post(t, ts.URL+"/v1/sweep", fmt.Sprintf(corpus, 1)); status != http.StatusOK {
		t.Fatalf("warm request status %d: %s", status, body)
	}
	for i, tc := range []struct{ accept, progress, result string }{
		{ContentTypeNDJSON, `{"event":"progress",`, `{"kind":`},
		{ContentTypeSSE, "event: progress", "data: {\"kind\":"},
	} {
		spec := fmt.Sprintf(corpus, 1001+i)
		status, buffered, _ := post(t, ts.URL+"/v1/sweep", spec)
		if status != http.StatusOK {
			t.Fatalf("buffered status %d: %s", status, buffered)
		}
		s.FlushCache()
		resp, lines := streamLines(t, ts.URL+"/v1/sweep", spec, tc.accept)
		if resp.Header.Get("X-Cache") != "cold" {
			t.Fatalf("%s: X-Cache %q, want cold", tc.accept, resp.Header.Get("X-Cache"))
		}
		progress, final := 0, ""
		for _, line := range lines {
			if strings.HasPrefix(line, tc.progress) {
				progress++
			}
			if strings.HasPrefix(line, tc.result) {
				final = strings.TrimPrefix(line, "data: ")
			}
		}
		if progress != 1 {
			t.Errorf("%s: %d progress events, want exactly 1 for 30 trials", tc.accept, progress)
		}
		if want := strings.TrimSuffix(string(buffered), "\n"); final != want {
			t.Errorf("%s: final line differs from buffered body:\n%s\nvs\n%s", tc.accept, final, want)
		}
	}
}

// TestSweepStreamDisconnectCancelsEval pins prompt cancellation: a client
// abandoning a large streaming sweep mid-flight cancels the evaluation
// (visible as a stream abort) instead of burning the slot to completion.
func TestSweepStreamDisconnectCancelsEval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := streamTrialsSpec(2_000_000, 9)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep/stream",
		strings.NewReader(spec))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one progress event to prove the stream is live, then vanish.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first stream byte: %v", err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		var snap Snapshot
		status, body, _ := get(t, ts.URL+"/metrics")
		if status != http.StatusOK || json.Unmarshal(body, &snap) != nil {
			t.Fatalf("metrics fetch failed: %d", status)
		}
		if snap.StreamAborts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnect did not cancel the streaming evaluation (no stream abort counted)")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueFullRetryAfter is the shed-semantics regression test: with the
// slot busy and the waiter queue at its bound, the next request gets an
// immediate 503 whose body says the queue was full — not a timeout it
// never waited out — and carries a Retry-After hint. The parked waiter
// then times out with the timeout body, also with Retry-After.
func TestQueueFullRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1, MaxWaiters: 1, Timeout: 300 * time.Millisecond})
	s.evalDelay = 600 * time.Millisecond

	// Occupy the slot with a cold evaluation.
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		post(t, ts.URL+"/v1/model", `{"case":"example"}`)
	}()
	waitForCond(t, func() bool { return s.Evaluations() >= 1 }, "holder never started")

	// Park one waiter (fills MaxWaiters=1).
	parked := make(chan struct {
		status int
		body   []byte
		hdr    http.Header
	}, 1)
	go func() {
		status, body, hdr := post(t, ts.URL+"/v1/model", `{"case":"lcls-cori"}`)
		parked <- struct {
			status int
			body   []byte
			hdr    http.Header
		}{status, body, hdr}
	}()
	waitForCond(t, func() bool {
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		tn := s.adm.tenants["default"]
		return tn != nil && len(tn.queue) >= 1
	}, "waiter never parked")

	// Third request: queue full, shed now.
	start := time.Now()
	status, body, hdr := post(t, ts.URL+"/v1/model", `{"case":"bgw-64"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("queue-full status = %d, want 503", status)
	}
	if time.Since(start) > 250*time.Millisecond {
		t.Error("queue-full shed was not immediate")
	}
	if got := hdr.Get("Retry-After"); got == "" {
		t.Error("queue-full 503 has no Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("queue-full body = %s, want a queue-full cause", body)
	}
	if strings.Contains(string(body), "within") {
		t.Errorf("queue-full body misreports a timeout cause: %s", body)
	}

	// The parked waiter times out against the 300ms budget with the
	// timeout body and its own Retry-After.
	res := <-parked
	if res.status != http.StatusServiceUnavailable {
		t.Fatalf("queue-timeout status = %d, want 503", res.status)
	}
	if !strings.Contains(string(res.body), "within") {
		t.Errorf("queue-timeout body = %s, want the timeout cause", res.body)
	}
	if res.hdr.Get("Retry-After") == "" {
		t.Error("queue-timeout 503 has no Retry-After")
	}
	<-hold

	var snap Snapshot
	_, mbody, _ := get(t, ts.URL+"/metrics")
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.QueueSheds != 1 {
		t.Errorf("queue_sheds = %d, want 1", snap.QueueSheds)
	}
	if snap.QueueTimeouts != 1 {
		t.Errorf("queue_timeouts = %d, want 1", snap.QueueTimeouts)
	}
}

// TestRateShedRetryAfter checks a rate-limited tenant is shed with 503 and
// a Retry-After derived from the bucket refill horizon.
func TestRateShedRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantRate: 0.5, TenantBurst: 1})

	status, _, _ := post(t, ts.URL+"/v1/model", `{"case":"example"}`)
	if status != http.StatusOK {
		t.Fatalf("first request status %d", status)
	}
	status, body, hdr := post(t, ts.URL+"/v1/model", `{"case":"example2"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("over-rate status = %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("rate-shed 503 has no Retry-After")
	}
	if !strings.Contains(string(body), "over admission rate") {
		t.Errorf("rate-shed body = %s", body)
	}
}

// TestDeadlineNeverStartsEval is the zero-evals-past-deadline contract: a
// request whose declared X-Deadline-Ms expires in the queue is refused
// without ever starting its evaluation, and a grant that arrives after the
// deadline is handed back (504 + deadline_skips) rather than used.
func TestDeadlineNeverStartsEval(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1})
	s.evalDelay = 400 * time.Millisecond

	hold := make(chan struct{})
	go func() {
		defer close(hold)
		post(t, ts.URL+"/v1/model", `{"case":"example"}`)
	}()
	waitForCond(t, func() bool { return s.Evaluations() >= 1 }, "holder never started")

	// This request's 100ms budget expires while the 400ms holder owns the
	// only slot: it must be refused without evaluating.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/model", strings.NewReader(`{"case":"lcls-cori"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "100")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline status = %d, want 503 or 504", resp.StatusCode)
	}
	<-hold
	if got := s.Evaluations(); got != 1 {
		t.Errorf("evaluations = %d, want 1 — the dead request must never start", got)
	}
	// Its spec must not have been evaluated into the cache either.
	_, _, hdr := post(t, ts.URL+"/v1/model", `{"case":"lcls-cori"}`)
	if got := hdr.Get("X-Cache"); got != "cold" {
		t.Errorf("expired request's spec X-Cache = %q, want cold (never evaluated)", got)
	}

	// Direct grant-race probe: a context already expired at admit time is
	// turned back at the last gate.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.admit(ctx, "default"); err == nil {
		t.Fatal("admit with expired context succeeded")
	}
	var snap Snapshot
	_, mbody, _ := get(t, ts.URL+"/metrics")
	if err := json.Unmarshal(mbody, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.DeadlineSkips < 1 {
		t.Errorf("deadline_skips = %d, want >= 1", snap.DeadlineSkips)
	}
}

// TestSweepStreamEvalTimeoutCounted: an evaluation that runs out of its
// deadline counts exactly one eval_timeouts whether its result was to be
// buffered (a 504) or streamed (an in-band 504 error event).
func TestSweepStreamEvalTimeoutCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// The delay runs after admission, so the 20ms budget expires before the
	// sweep starts and the evaluation itself reports the deadline.
	s.evalDelay = 100 * time.Millisecond
	for i, tc := range []struct{ path, accept string }{
		{"/v1/sweep", ""},
		{"/v1/sweep/stream", ContentTypeNDJSON},
	} {
		before := s.MetricsSnapshot().EvalTimeouts
		req, err := http.NewRequest("POST", ts.URL+tc.path, strings.NewReader(streamTrialsSpec(4096, uint64(900+i))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(DeadlineHeader, "20")
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		if tc.accept != "" {
			var ev struct {
				Event  string `json:"event"`
				Status int    `json:"status"`
			}
			if err := json.Unmarshal(bytes.TrimSpace(body), &ev); err != nil || ev.Event != "error" {
				t.Fatalf("%s: stream body %q, want one error event (%v)", tc.path, body, err)
			}
			status = ev.Status
		}
		if status != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d, want 504", tc.path, status)
		}
		if got := s.MetricsSnapshot().EvalTimeouts - before; got != 1 {
			t.Errorf("%s: eval_timeouts rose by %d, want 1", tc.path, got)
		}
	}
}

// TestSweepFailuresUnfinished: a failure ensemble in which some trials
// exhaust their attempts is a 200 carrying an "unfinished" histogram bin,
// not a 400, and its streamed final line is the buffered body. Progress
// snapshots count finished trials only.
func TestSweepFailuresUnfinished(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := `{"kind":"failures","case":"lcls-cori","trials":400,"seed":7,"batch":16,` +
		`"failure":{"task_fail_prob":0.3,"restage_rate":"1 GB/s"}}`

	status, buffered, _ := post(t, ts.URL+"/v1/sweep", spec)
	if status != http.StatusOK {
		t.Fatalf("buffered status %d: %s", status, buffered)
	}
	if !bytes.Contains(buffered, []byte(`"unfinished"`)) {
		t.Fatalf("buffered body has no unfinished bin: %s", buffered)
	}
	s.FlushCache()

	resp, lines := streamLines(t, ts.URL+"/v1/sweep/stream", spec, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "cold" {
		t.Fatalf("stream status %d X-Cache %q, want 200 cold", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want progress + result", len(lines))
	}
	if want := strings.TrimSuffix(string(buffered), "\n"); lines[len(lines)-1] != want {
		t.Errorf("final stream line differs from buffered body:\n%s\nvs\n%s", lines[len(lines)-1], want)
	}
	for _, line := range lines[:len(lines)-1] {
		var p progressEvent
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("progress line is not JSON: %q: %v", line, err)
		}
		if p.Summary.N < 1 || p.Summary.N > p.Done {
			t.Errorf("progress n = %d at done = %d, want finished trials within the prefix", p.Summary.N, p.Done)
		}
	}
}
