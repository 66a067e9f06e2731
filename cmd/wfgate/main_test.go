package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wroofline/internal/serve"
)

// syncBuffer lets the test read the gate's JSON log while it is writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServesAndDrains boots the gate on an ephemeral port in front of a
// real in-process replica, checks it proxies, then cancels the context and
// requires a clean drain.
func TestRunServesAndDrains(t *testing.T) {
	replica := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer replica.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-backends", replica.URL, "-drain", "5s",
		}, io.Discard, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gate never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: status %d, body %s", resp.StatusCode, body)
	}

	resp, err = http.Post("http://"+addr+"/v1/model", "application/json",
		strings.NewReader(`{"case":"example"}`))
	if err != nil {
		t.Fatalf("model via gate: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	backendHdr := resp.Header.Get("X-Backend")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("model via gate: status %d", resp.StatusCode)
	}
	if backendHdr != replica.URL {
		t.Errorf("X-Backend = %q, want %q", backendHdr, replica.URL)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after cancel, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gate did not drain after cancel")
	}
}

// TestRunPprofEndpoint checks -pprof exposes the profiler on its own
// listener, and that the profiler is absent from the gate's public address
// (which proxies unknown paths to the backends rather than serving them).
func TestRunPprofEndpoint(t *testing.T) {
	replica := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer replica.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &syncBuffer{}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-backends", replica.URL,
			"-pprof", "127.0.0.1:0", "-drain", "5s",
		}, logs, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gate never became ready")
	}

	// The pprof listener binds (and logs) before the service listener, so
	// its address is already in the log by the time ready fires.
	var pprofAddr string
	for _, line := range strings.Split(logs.String(), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err == nil && rec.Msg == "pprof listening" {
			pprofAddr = rec.Addr
		}
	}
	if pprofAddr == "" {
		t.Fatalf("no 'pprof listening' log line; log:\n%s", logs.String())
	}

	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof cmdline: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d, want 200", resp.StatusCode)
	}

	// The public address must NOT serve the profiler.
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("gate pprof probe: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("profiler reachable on the public gate address")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after cancel, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gate did not drain after cancel")
	}
}

// TestRunRequiresBackends rejects a missing -backends flag before binding.
func TestRunRequiresBackends(t *testing.T) {
	err := run(context.Background(), nil, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "-backends") {
		t.Errorf("err = %v, want missing -backends error", err)
	}
}

// TestRunBadBackendURL surfaces cluster config validation.
func TestRunBadBackendURL(t *testing.T) {
	err := run(context.Background(), []string{"-backends", "not-a-url"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "base URL") {
		t.Errorf("err = %v, want base-URL validation error", err)
	}
}

// TestRunBadFlags rejects unknown flags without starting a listener.
func TestRunBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-bogus"}, io.Discard, nil)
	if err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunStreamsIncrementally is the end-to-end flush proof over real TCP:
// an SSE sweep through the gate delivers its first progress frame while
// the replica is still evaluating — not as part of one buffered write at
// the end. A buffering gate would make time-to-first-event equal the total
// stream time; a flushing one makes it a small fraction.
func TestRunStreamsIncrementally(t *testing.T) {
	// One evaluation worker leaves a P free on a 2-CPU host. With every P
	// busy simulating, the goroutines that carry a frame from the replica
	// through the gate to this client only run when the scheduler preempts
	// a worker (every ~10 ms), and the first frame's latency measures that,
	// not the gate's flushing.
	replica := httptest.NewServer(serve.New(serve.Config{Workers: 1}).Handler())
	defer replica.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-backends", replica.URL, "-drain", "5s",
		}, io.Discard, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gate never became ready")
	}

	// Warm up through the gate with a small sweep on the same case: the
	// replica compiles and caches the case plan, and the gate opens its
	// upstream connection, so the timed stream's first frame measures
	// streaming rather than a cold compile and dial.
	warm, err := http.Post("http://"+addr+"/v1/sweep", "application/json", strings.NewReader(
		`{"kind":"montecarlo","case":"lcls-cori","trials":16,"seed":1,`+
			`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, warm.Body); err != nil {
		t.Fatal(err)
	}
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm-up sweep: status %d", warm.StatusCode)
	}

	// Big enough that evaluation takes a measurable while relative to the
	// first snapshot. The throttle emits a snapshot when the first chunk
	// lands, then one per 6250 or more further trials: at most 64 in all.
	spec := `{"kind":"montecarlo","case":"lcls-cori","trials":400000,"seed":3,"batch":256,` +
		`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`
	req, _ := http.NewRequest("POST", "http://"+addr+"/v1/sweep", strings.NewReader(spec))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", serve.ContentTypeSSE)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != serve.ContentTypeSSE {
		t.Fatalf("Content-Type = %q, want %q", got, serve.ContentTypeSSE)
	}

	// Read frame boundaries one byte at a time so arrival timing is the
	// client's, not a buffered reader's.
	var firstEvent time.Duration
	var events int
	var text strings.Builder
	buf := make([]byte, 1)
	blank := 0
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			text.WriteByte(buf[0])
			if buf[0] == '\n' {
				blank++
				if blank == 2 { // "\n\n" closes an SSE frame
					events++
					if events == 1 {
						firstEvent = time.Since(start)
					}
					blank = 0
				}
			} else {
				blank = 0
			}
		}
		if err != nil {
			break
		}
	}
	total := time.Since(start)

	if events < 2 {
		t.Fatalf("read %d SSE frames, want progress + result", events)
	}
	s := text.String()
	if !strings.Contains(s, "event: progress") {
		t.Error("no progress frame in SSE stream through the gate")
	}
	ri := strings.Index(s, "event: result")
	if ri < 0 {
		t.Fatal("no result frame in SSE stream through the gate")
	}
	if pi := strings.Index(s, "event: progress"); pi > ri {
		t.Error("progress frame arrived after the result frame")
	}
	// The incremental-delivery claim: first frame lands well before the
	// stream completes. A buffering hop collapses this to ~100%.
	if firstEvent > total/2 {
		t.Errorf("first SSE frame at %v of %v total — gate is buffering, not flushing",
			firstEvent, total)
	}
	cancel()
	<-done
}
