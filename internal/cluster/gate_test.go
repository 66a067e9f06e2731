package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wroofline/internal/serve"
)

// pooledTransport resolves backend hosts to in-process handlers with no
// sockets, and recycles each exchange's state when the gate closes the
// response body — so a repeat hit measures the gate and the replica hit
// path, not the harness. mangle, when set, may rewrite a response before
// the gate sees it (the lying-upstream tests); before runs ahead of every
// upstream call (the herd tests park on it).
type pooledTransport struct {
	handlers map[string]http.Handler
	pool     sync.Pool
	calls    atomic.Int64
	before   func(*http.Request)
	mangle   func(host string, resp *http.Response)
}

// pooledCall is one in-process exchange: the replica writes into it as an
// http.ResponseWriter, the gate reads it back as the response body, and
// Close hands it back to the pool.
type pooledCall struct {
	t      *pooledTransport
	h      http.Header
	status int
	buf    bytes.Buffer
	rd     bytes.Reader
	resp   http.Response
}

func (c *pooledCall) Header() http.Header { return c.h }

func (c *pooledCall) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}

func (c *pooledCall) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	return c.buf.Write(p)
}

func (c *pooledCall) Read(p []byte) (int, error) { return c.rd.Read(p) }

func (c *pooledCall) Close() error {
	c.resp = http.Response{}
	c.t.pool.Put(c)
	return nil
}

func (t *pooledTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.calls.Add(1)
	if t.before != nil {
		t.before(req)
	}
	h := t.handlers[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("no in-process backend %q", req.URL.Host)
	}
	c, _ := t.pool.Get().(*pooledCall)
	if c == nil {
		c = &pooledCall{t: t, h: make(http.Header, 8)}
	}
	clear(c.h)
	c.status = 0
	c.buf.Reset()
	h.ServeHTTP(c, req)
	c.WriteHeader(http.StatusOK)
	c.rd.Reset(c.buf.Bytes())
	c.resp = http.Response{
		StatusCode:    c.status,
		Header:        c.h,
		Body:          c,
		ContentLength: int64(c.buf.Len()),
		Request:       req,
	}
	if t.mangle != nil {
		t.mangle(req.URL.Host, &c.resp)
	}
	return &c.resp, nil
}

// inprocGate is a gate over in-process replicas named replica-0..n-1.
type inprocGate struct {
	gate     *Gate
	tr       *pooledTransport
	replicas []*serve.Server
	urls     []string
}

func newInprocGate(t testing.TB, n int) *inprocGate {
	t.Helper()
	c := &inprocGate{tr: &pooledTransport{handlers: map[string]http.Handler{}}}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("replica-%d", i)
		s := serve.New(serve.Config{})
		c.replicas = append(c.replicas, s)
		c.urls = append(c.urls, "http://"+host)
		c.tr.handlers[host] = s.Handler()
	}
	g, err := New(Config{Backends: c.urls, Client: &http.Client{Transport: c.tr}})
	if err != nil {
		t.Fatal(err)
	}
	c.gate = g
	return c
}

// do sends one request through the gate; inm, when set, is If-None-Match.
func (c *inprocGate) do(method, path, body, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	c.gate.Handler().ServeHTTP(rec, req)
	return rec
}

// evaluations sums Evaluations across the replicas.
func (c *inprocGate) evaluations() uint64 {
	var n uint64
	for _, s := range c.replicas {
		n += s.Evaluations()
	}
	return n
}

// ownedModelBody returns a /v1/model body whose primary owner is backend
// idx, varying curve_samples until the rendezvous hash lands there.
func ownedModelBody(t *testing.T, g *Gate, idx int) string {
	t.Helper()
	for n := 8; n < 512; n++ {
		body := fmt.Sprintf(`{"case":"example","curve_samples":%d}`, n)
		if g.ring.Owner(mustModelKey(t, body), nil) == idx {
			return body
		}
	}
	t.Fatalf("no body owned by backend %d", idx)
	return ""
}

// TestGateUpstreamLengthMismatch is the never-truncate contract: an
// upstream whose body ends short of (or runs past) its Content-Length is a
// transport failure. The owner is marked down and the request fails over
// to a survivor with the full body; with no survivor the client gets a 502
// problem, never the partial bytes.
func TestGateUpstreamLengthMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta int64
	}{
		{"overstated", 100},
		{"understated", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newInprocGate(t, 2)
			liar := "replica-0"
			c.tr.mangle = func(host string, resp *http.Response) {
				if host == liar && resp.Request.URL.Path != "/healthz" {
					resp.ContentLength += tc.delta
				}
			}
			body := ownedModelBody(t, c.gate, 0)
			direct := httptest.NewRecorder()
			c.tr.handlers["replica-1"].ServeHTTP(direct, httptest.NewRequest("POST", "/v1/model", strings.NewReader(body)))

			rec := c.do("POST", "/v1/model", body, "")
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), direct.Body.Bytes()) {
				t.Fatalf("failover: status %d, %d bytes; want 200 with the survivor's %d bytes",
					rec.Code, rec.Body.Len(), direct.Body.Len())
			}
			if got := rec.Header().Get("X-Backend"); got != "http://replica-1" {
				t.Errorf("X-Backend = %q, want the survivor", got)
			}
			snap := c.gate.MetricsSnapshot()
			if snap.UpstreamErrors != 1 || snap.Rerouted != 1 || snap.Backends[0].Up {
				t.Errorf("after a lying upstream: %+v, want 1 upstream error, 1 reroute, liar down", snap)
			}

			// Every replica lies: a 502 problem, not a truncated 200.
			c.tr.mangle = func(_ string, resp *http.Response) { resp.ContentLength += tc.delta }
			rec = c.do("POST", "/v1/model", ownedModelBody(t, c.gate, 1), "")
			if rec.Code != http.StatusBadGateway {
				t.Fatalf("all upstreams lying: status %d, want 502", rec.Code)
			}
			if !strings.Contains(rec.Body.String(), `"status":502`) {
				t.Errorf("502 body is not a gate problem document: %s", rec.Body.String())
			}
		})
	}
}

// TestGateHugeContentLengthNotPreallocated checks that a header claiming
// an enormous body does not make the gate allocate that much up front: the
// claim falls back to the incremental read, and the short body is still a
// transport failure.
func TestGateHugeContentLengthNotPreallocated(t *testing.T) {
	c := newInprocGate(t, 1)
	body := `{"case":"example"}`
	if rec := c.do("POST", "/v1/model", body, ""); rec.Code != http.StatusOK {
		t.Fatalf("prime: status %d", rec.Code)
	}
	c.tr.mangle = func(_ string, resp *http.Response) { resp.ContentLength = 1 << 40 }

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := c.do("POST", "/v1/model", body, "")
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("short body under a huge claim: status %d, want 502", rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxPresizedBody {
		t.Errorf("one request allocated %d bytes under a 1 TiB Content-Length claim, want at most the %d-byte ceiling",
			got, maxPresizedBody)
	}
}

// TestGateRouteMemo pins the raw-body routing memo: each formatting
// variant of one spec canonicalizes once, repeats are served from the memo
// without canonicalizing, and every variant still routes to one owner.
func TestGateRouteMemo(t *testing.T) {
	c := newInprocGate(t, 3)
	var canonicalized atomic.Int64
	counted := c.gate.routeKey("route-test", func(b []byte) (serve.Key, error) {
		canonicalized.Add(1)
		return serve.ModelKey(b)
	})
	variants := []string{`{"case":"lcls-cori"}`, `{ "case" : "lcls-cori" }`, "{\n\t\"case\": \"lcls-cori\"\n}"}
	want := mustModelKey(t, variants[0])
	for round := 0; round < 3; round++ {
		for _, v := range variants {
			if got := counted([]byte(v)); got != want {
				t.Fatalf("variant %q routes on %x, want the canonical key %x", v, got, want)
			}
		}
	}
	if got := canonicalized.Load(); got != int64(len(variants)) {
		t.Errorf("canonicalized %d times for %d variants over 3 rounds, want once per variant",
			got, len(variants))
	}
	// A rejected body memoizes its raw-hash route too.
	bad := []byte(`{"case":"lcls-cori","bogus":1}`)
	before := canonicalized.Load()
	for round := 0; round < 3; round++ {
		if got, want := counted(bad), serve.ContentKey("raw-route", bad); got != want {
			t.Fatalf("rejected body routes on %x, want its raw-hash key %x", got, want)
		}
	}
	if got := canonicalized.Load() - before; got != 1 {
		t.Errorf("rejected body canonicalized %d times over 3 rounds, want once", got)
	}

	// Through the gate: one owner, one evaluation, one memo entry per
	// variant.
	memo := c.gate.routes.Len()
	backend := ""
	for round := 0; round < 2; round++ {
		for _, v := range variants {
			rec := c.do("POST", "/v1/model", v, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("%q: status %d", v, rec.Code)
			}
			if backend == "" {
				backend = rec.Header().Get("X-Backend")
			}
			if got := rec.Header().Get("X-Backend"); got != backend {
				t.Errorf("%q routed to %s, want %s", v, got, backend)
			}
		}
	}
	if got := c.gate.routes.Len() - memo; got != len(variants) {
		t.Errorf("routing memo gained %d entries, want %d", got, len(variants))
	}
	if got := c.evaluations(); got != 1 {
		t.Errorf("cluster evaluations = %d, want 1", got)
	}

	// The streaming and buffered sweep routes share one memo entry.
	const spec = `{"kind":"grid","case":"lcls-cori","p":5,"resources":[{"resource":"memory","factors":[1,2]}],"wall_factors":[1]}`
	memo = c.gate.routes.Len()
	for _, path := range []string{"/v1/sweep/stream", "/v1/sweep", "/v1/sweep/stream"} {
		if rec := c.do("POST", path, spec, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
	}
	if got := c.gate.routes.Len() - memo; got != 1 {
		t.Errorf("stream and buffered sweeps added %d memo entries, want 1", got)
	}
}

// TestGateRejectedBodyOncePerHerd covers canonicalizer-rejected bodies:
// they still route and coalesce deterministically by their raw hash, so a
// herd costs one upstream call to one owner, whose 400 every member
// receives verbatim — and the memoized route keeps later herds on that
// owner.
func TestGateRejectedBodyOncePerHerd(t *testing.T) {
	c := newInprocGate(t, 3)
	const body = `{"case":"example","bogus":1}`
	const herd = 16
	key := serve.ContentKey("raw-route", []byte(body))
	owner := c.urls[c.gate.ring.Owner(key, nil)]

	release := make(chan struct{})
	var hosts sync.Map
	c.tr.before = func(req *http.Request) {
		hosts.Store("http://"+req.URL.Host, true)
		<-release
	}
	var want []byte
	for round := 0; round < 2; round++ {
		release = make(chan struct{})
		calls := c.tr.calls.Load()
		recs := make([]*httptest.ResponseRecorder, herd)
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				recs[i] = c.do("POST", "/v1/model", body, "")
			}(i)
		}
		waitFor(t, func() bool {
			n, inFlight := c.gate.flight.Waiting(key)
			return inFlight && n == herd-1
		}, "herd never coalesced onto one flight")
		close(release)
		wg.Wait()

		if got := c.tr.calls.Load() - calls; got != 1 {
			t.Errorf("round %d: %d upstream calls for a %d-way herd, want 1", round, got, herd)
		}
		if want == nil {
			want = recs[0].Body.Bytes()
		}
		for i, rec := range recs {
			if rec.Code != http.StatusBadRequest || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("round %d member %d: status %d body %s, want the owner's 400 %s",
					round, i, rec.Code, rec.Body.Bytes(), want)
			}
			if got := rec.Header().Get("X-Backend"); got != owner {
				t.Errorf("round %d member %d: X-Backend %q, want %q", round, i, got, owner)
			}
		}
	}
	hosts.Range(func(h, _ any) bool {
		if h != owner {
			t.Errorf("rejected body reached %v, want only its owner %s", h, owner)
		}
		return true
	})
}

// TestGateXBackendOnEveryResponse pins the X-Backend header on every
// proxied 200 and every gate-level 304: operators (and the benchmark's
// traced run, which attributes replica time by it) read the serving
// replica from it.
func TestGateXBackendOnEveryResponse(t *testing.T) {
	c := newInprocGate(t, 3)
	reqs := []struct{ method, path, body string }{
		{"POST", "/v1/model", `{"case":"example"}`},
		{"POST", "/v1/model", `{"case":"lcls-cori"}`},
		{"POST", "/v1/sweep", `{"kind":"grid","case":"lcls-cori","p":5,"resources":[{"resource":"memory","factors":[1,2]}],"wall_factors":[1]}`},
		{"GET", "/v1/figures/example.svg", ""},
	}
	valid := map[string]bool{}
	for _, u := range c.urls {
		valid[u] = true
	}
	for round := 0; round < 2; round++ {
		for _, r := range reqs {
			rec := c.do(r.method, r.path, r.body, "")
			backend := rec.Header().Get("X-Backend")
			if rec.Code != http.StatusOK || !valid[backend] {
				t.Fatalf("%s %s: status %d X-Backend %q, want 200 from a configured backend",
					r.method, r.path, rec.Code, backend)
			}
			etag := rec.Header().Get("ETag")
			rec = c.do(r.method, r.path, r.body, etag)
			if rec.Code != http.StatusNotModified {
				t.Fatalf("%s %s: revalidation status %d, want 304", r.method, r.path, rec.Code)
			}
			if got := rec.Header().Get("X-Backend"); got != backend {
				t.Errorf("%s %s: 304 X-Backend %q, want %q", r.method, r.path, got, backend)
			}
		}
	}
}

// The gate-hit floor pins the per-hit cost of a repeat gate hit over the
// pooled in-process transport: one cached /v1/model spec, a reusable
// client request and response writer, so everything counted is the gate's
// proxy path plus the replica hit behind it (0 allocs). Measured on a
// 2-CPU x86-64 host with go1.24: 45 allocs and 27,490 B per hit with
// io.ReadAll upstream reads and per-request canonical keying; 23 allocs
// and 7,830 B with exact-size reads, the routing memo and stamped
// headers. The floor sits between, with headroom for toolchain drift.
const (
	gateHitMaxAllocs = 30
	gateHitMaxBytes  = 12 << 10
)

func TestGateHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := newInprocGate(t, 3)
	const body = `{"case":"example"}`
	if rec := c.do("POST", "/v1/model", body, ""); rec.Code != http.StatusOK {
		t.Fatalf("prime: status %d", rec.Code)
	}
	rd := &replayBody{}
	req := httptest.NewRequest("POST", "/v1/model", nil)
	w := &discardWriter{h: make(http.Header, 8)}
	h := c.gate.Handler()
	hit := func() {
		clear(w.h)
		w.code = 0
		rd.Reset(body)
		req.Body = rd
		req.ContentLength = int64(len(body))
		h.ServeHTTP(w, req)
	}
	hit()
	if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" {
		t.Fatalf("repeat request: status %d X-Cache %q, want a 200 hit", w.code, w.h.Get("X-Cache"))
	}

	allocs := testing.AllocsPerRun(500, hit)
	const runs = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("gate hit: %.0f allocs, %.0f B", allocs, perHit)
	if allocs > gateHitMaxAllocs {
		t.Errorf("gate hit allocates %.0f times, want at most %d", allocs, gateHitMaxAllocs)
	}
	if perHit > gateHitMaxBytes {
		t.Errorf("gate hit allocates %.0f B, want at most %d", perHit, gateHitMaxBytes)
	}
}

// replayBody is a rewindable request body (io.NopCloser would allocate
// per request).
type replayBody struct{ strings.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and headers.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}
