package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// and 7,832 B with exact-size reads, the routing memo and stamped
// headers; 21 allocs and 1,641 B with pooled upstream bodies and the
// upstream request built from the parsed backend URL; 14 allocs and
// 1,361 B with shared deadline windows, direct round trips and canonical
// header lookups. The floor keeps a little headroom for toolchain drift.
const (
	gateHitMaxAllocs = 16
	gateHitMaxBytes  = 1536
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

// TestGateEscapedFigureNames is the escaped-path regression: a figure name
// holding "%", "?", "#" or "/" reaches the owning replica as the name the
// gate routed on, so the client gets the replica's own 404, no backend is
// marked down and no upstream error is counted. (Built by re-parsing the
// backend URL plus the decoded path, "100%" failed to parse on every
// backend and "fig1.svg?x=1" arrived as a query.)
func TestGateEscapedFigureNames(t *testing.T) {
	cases := []struct{ path, name string }{
		{"/v1/figures/100%25", "100%"},
		{"/v1/figures/fig1.svg%3Fx=1", "fig1.svg?x=1"},
		{"/v1/figures/fig1.svg%23top", "fig1.svg#top"},
		{"/v1/figures/a%2Fb.svg", "a/b.svg"},
	}
	t.Run("in-process", func(t *testing.T) {
		c := newInprocGate(t, 3)
		var mu sync.Mutex
		var sent []string
		c.tr.before = func(req *http.Request) {
			mu.Lock()
			sent = append(sent, req.URL.RequestURI())
			mu.Unlock()
		}
		for _, tc := range cases {
			direct := httptest.NewRecorder()
			c.tr.handlers["replica-0"].ServeHTTP(direct, httptest.NewRequest("GET", tc.path, nil))
			if direct.Code != http.StatusNotFound || !strings.Contains(direct.Body.String(), tc.name) {
				t.Fatalf("%s direct: status %d body %s, want a 404 naming %q", tc.path, direct.Code, direct.Body, tc.name)
			}
			sent = sent[:0]
			rec := c.do("GET", tc.path, "", "")
			if rec.Code != direct.Code || !bytes.Equal(rec.Body.Bytes(), direct.Body.Bytes()) {
				t.Errorf("%s: gate %d %s, want the replica's %d %s", tc.path, rec.Code, rec.Body, direct.Code, direct.Body)
			}
			if want := c.urls[c.gate.ring.Owner(serve.FigureKey(tc.name), nil)]; rec.Header().Get("X-Backend") != want {
				t.Errorf("%s: X-Backend %q, want the name's owner %q", tc.path, rec.Header().Get("X-Backend"), want)
			}
			if len(sent) != 1 || sent[0] != tc.path {
				t.Errorf("%s: upstream request URIs %q, want exactly the client's", tc.path, sent)
			}
		}
		snap := c.gate.MetricsSnapshot()
		if snap.UpstreamErrors != 0 {
			t.Errorf("upstream_errors = %d, want 0", snap.UpstreamErrors)
		}
		for _, b := range snap.Backends {
			if !b.Up {
				t.Errorf("backend %s marked down", b.URL)
			}
		}
	})
	t.Run("tcp", func(t *testing.T) {
		single := httptest.NewServer(serve.New(serve.Config{}).Handler())
		defer single.Close()
		c := newCluster(t, 3)
		for _, tc := range cases {
			wantStatus, wantBody, _ := get(t, single.URL+tc.path)
			gotStatus, gotBody, _ := get(t, c.front.URL+tc.path)
			if gotStatus != wantStatus || !bytes.Equal(gotBody, wantBody) {
				t.Errorf("%s: gate %d %s, single server %d %s", tc.path, gotStatus, gotBody, wantStatus, wantBody)
			}
		}
		if n := c.gate.MetricsSnapshot().UpstreamErrors; n != 0 {
			t.Errorf("upstream_errors = %d, want 0", n)
		}
	})
}

// TestGateUpstreamRequestParity pins the hand-built upstream request to
// what http.NewRequestWithContext makes from the backend URL plus path:
// the same method, URL, request URI, host, protocol, length, forwarded
// headers and body bytes, http.NoBody for an empty body, and a GetBody for
// a non-empty one (without it the transport cannot retry on a stale
// keep-alive connection, and the gate would mark a healthy backend down).
func TestGateUpstreamRequestParity(t *testing.T) {
	c := newInprocGate(t, 1)
	var got *http.Request
	var gotBody []byte
	c.tr.before = func(req *http.Request) {
		got, gotBody = req, nil
		if req.Body != http.NoBody {
			gotBody, _ = io.ReadAll(req.Body)
			// Hand the replica a fresh copy of what was just read.
			req.Body, _ = req.GetBody()
		}
	}
	const sweep = `{"kind":"grid","case":"lcls-cori","p":5,"resources":[{"resource":"memory","factors":[1,2]}],"wall_factors":[1]}`
	forwarded := []string{"Content-Type", "Accept", serve.TenantHeader, serve.DeadlineHeader}
	for _, tc := range []struct {
		name, method, path, upstream, body, accept string
	}{
		{"model", "POST", "/v1/model", "/v1/model", `{"case":"example"}`, ""},
		{"sweep", "POST", "/v1/sweep", "/v1/sweep", sweep, ""},
		{"stream", "POST", "/v1/sweep", "/v1/sweep/stream", sweep, serve.ContentTypeNDJSON},
		{"figure", "GET", "/v1/figures/example.svg", "/v1/figures/example.svg", "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if tc.body != "" {
				client.Header.Set("Content-Type", "application/json")
			}
			if tc.accept != "" {
				client.Header.Set("Accept", tc.accept)
			}
			client.Header.Set(serve.TenantHeader, "parity")
			client.Header.Set(serve.DeadlineHeader, "60000")
			rec := httptest.NewRecorder()
			c.gate.Handler().ServeHTTP(rec, client)
			if rec.Code != http.StatusOK || got == nil {
				t.Fatalf("status %d, upstream request %v", rec.Code, got)
			}

			want, err := http.NewRequestWithContext(context.Background(), tc.method,
				c.urls[0]+tc.upstream, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range forwarded {
				if v := client.Header.Get(k); v != "" {
					want.Header.Set(k, v)
				}
			}
			if got.Method != want.Method || *got.URL != *want.URL || got.URL.RequestURI() != want.URL.RequestURI() {
				t.Errorf("target %s %+v (%s), want %s %+v (%s)", got.Method, *got.URL, got.URL.RequestURI(),
					want.Method, *want.URL, want.URL.RequestURI())
			}
			if got.Host != want.Host || got.Proto != want.Proto ||
				got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor {
				t.Errorf("host/proto %q %q %d.%d, want %q %q %d.%d", got.Host, got.Proto, got.ProtoMajor,
					got.ProtoMinor, want.Host, want.Proto, want.ProtoMajor, want.ProtoMinor)
			}
			if got.ContentLength != want.ContentLength {
				t.Errorf("ContentLength %d, want %d", got.ContentLength, want.ContentLength)
			}
			if !reflect.DeepEqual(got.Header, want.Header) {
				t.Errorf("headers %v, want %v", got.Header, want.Header)
			}
			if tc.body == "" {
				if got.Body != http.NoBody || want.Body != http.NoBody {
					t.Errorf("empty body: got %T, reference %T, want http.NoBody for both", got.Body, want.Body)
				}
				return
			}
			if string(gotBody) != tc.body {
				t.Errorf("body %q, want %q", gotBody, tc.body)
			}
			if got.GetBody == nil {
				t.Fatal("non-empty body without GetBody: the transport could not retry it")
			}
			rd, err := got.GetBody()
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := io.ReadAll(rd); string(again) != tc.body {
				t.Errorf("GetBody replays %q, want %q", again, tc.body)
			}
		})
	}
}

// sizedFigures wraps a replica handler so that GET
// /v1/figures/sized-<n>[-suffix] answers n deterministic bytes with a
// per-size ETag, letting a test pick body sizes on both sides of
// maxPooledBody.
func sizedFigures(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := strings.CutPrefix(r.URL.Path, "/v1/figures/sized-")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		n, _ := strconv.Atoi(strings.SplitN(name, "-", 2)[0])
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("ETag", sizedETag(n))
		w.Write(sizedBody(n))
	})
}

func sizedBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + n)
	}
	return b
}

func sizedETag(n int) string { return fmt.Sprintf(`"sized-%d"`, n) }

// TestGatePooledBodyCap pins which upstream bodies are read into pooled
// buffers: declared lengths up to maxPooledBody are, longer or undeclared
// ones are not, and a body shorter or longer than declared never hands a
// buffer back for pooling.
func TestGatePooledBodyCap(t *testing.T) {
	for _, tc := range []struct {
		n, declared int
		pooled      bool
	}{
		{0, 0, true},
		{1, 1, true},
		{4096, 4096, true},
		{maxPooledBody, maxPooledBody, true},
		{maxPooledBody + 1, maxPooledBody + 1, false},
		{100, -1, false},
	} {
		data := sizedBody(tc.n)
		resp := &http.Response{ContentLength: int64(tc.declared), Body: io.NopCloser(bytes.NewReader(data))}
		body, buf, err := readUpstream(resp)
		if err != nil || !bytes.Equal(body, data) {
			t.Fatalf("%d bytes: err %v, body intact %v", tc.n, err, bytes.Equal(body, data))
		}
		if (buf != nil) != tc.pooled {
			t.Errorf("%d bytes declared %d: pooled %v, want %v", tc.n, tc.declared, buf != nil, tc.pooled)
		}
		res := newUpstreamResult(&http.Response{StatusCode: http.StatusOK, Header: http.Header{}}, body, buf)
		res.release()
		if res.body != nil || res.buf != nil {
			t.Errorf("%d bytes: a released result still holds its body", tc.n)
		}
	}
	for _, delta := range []int{-1, 100} {
		data := sizedBody(4096)
		resp := &http.Response{ContentLength: int64(len(data) + delta), Body: io.NopCloser(bytes.NewReader(data))}
		if _, buf, err := readUpstream(resp); err == nil || buf != nil {
			t.Errorf("length off by %d: err %v, pooled buffer %v; want an error and no buffer", delta, err, buf != nil)
		}
	}
}

// TestGatePooledBodyOwnership is the ownership wall for pooled upstream
// bodies. Through one gate, at once: a 64-way coalesced herd, a herd whose
// waiters all cancel mid-flight (its leader then runs alone and recycles),
// concurrent distinct keys with bodies on both sides of maxPooledBody, and
// primary owners that misstate their body length and fail over. Every
// rider must get the replica's exact bytes and ETag. Under -race a
// recycled buffer that another rider still writes out is a reported race,
// and release empties the result, so a shared result recycled early shows
// as a missing body even without the detector.
func TestGatePooledBodyOwnership(t *testing.T) {
	c := newInprocGate(t, 3)
	for host, h := range c.tr.handlers {
		c.tr.handlers[host] = sizedFigures(h)
	}
	const herdPath, cancelPath = "/v1/figures/sized-5000", "/v1/figures/sized-7000"
	gates := map[string]chan struct{}{herdPath: make(chan struct{}), cancelPath: make(chan struct{})}
	var herdCalls, cancelCalls atomic.Int64
	c.tr.before = func(req *http.Request) {
		switch req.URL.Path {
		case herdPath:
			herdCalls.Add(1)
		case cancelPath:
			cancelCalls.Add(1)
		}
		if ch := gates[req.URL.Path]; ch != nil {
			<-ch
		}
	}
	// A "-short" name's primary owner declares more bytes than it sends, a
	// "-long" name's fewer; the gate must fail over to the next owner.
	c.tr.mangle = func(host string, resp *http.Response) {
		name, _ := strings.CutPrefix(resp.Request.URL.Path, "/v1/figures/")
		if c.urls[c.gate.ring.Owner(serve.FigureKey(name), nil)] != "http://"+host {
			return
		}
		switch {
		case strings.HasSuffix(name, "-short"):
			resp.ContentLength += 100
		case strings.HasSuffix(name, "-long"):
			resp.ContentLength--
		}
	}

	// expect checks one rider's response against the replica's bytes.
	reference := serve.New(serve.Config{}).Handler()
	expect := func(method, path, body string, rec *httptest.ResponseRecorder) {
		var want []byte
		var etag string
		if name, ok := strings.CutPrefix(path, "/v1/figures/sized-"); ok {
			n, _ := strconv.Atoi(strings.SplitN(name, "-", 2)[0])
			want, etag = sizedBody(n), sizedETag(n)
		} else {
			direct := httptest.NewRecorder()
			reference.ServeHTTP(direct, httptest.NewRequest(method, path, strings.NewReader(body)))
			want, etag = direct.Body.Bytes(), direct.Header().Get("ETag")
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("ETag") != etag {
			t.Errorf("%s %s: status %d, %d bytes (exact %v), ETag %q; want 200, the replica's %d bytes, ETag %q",
				method, path, rec.Code, rec.Body.Len(), bytes.Equal(rec.Body.Bytes(), want),
				rec.Header().Get("ETag"), len(want), etag)
		}
	}

	var wg sync.WaitGroup
	// The coalesced herd: one leader, 63 waiters, one upstream call.
	const herd = 64
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			expect("GET", herdPath, "", c.do("GET", herdPath, "", ""))
		}()
	}
	// The cancelled herd: every waiter hangs up before the fetch returns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		expect("GET", cancelPath, "", c.do("GET", cancelPath, "", ""))
	}()
	waitFor(t, func() bool { _, in := c.gate.flight.Waiting(serve.FigureKey("sized-7000")); return in },
		"cancelled herd's leader never started")
	const quitters = 8
	ctx, cancel := context.WithCancel(context.Background())
	var quit sync.WaitGroup
	for i := 0; i < quitters; i++ {
		quit.Add(1)
		go func() {
			defer quit.Done()
			req := httptest.NewRequest("GET", cancelPath, nil).WithContext(ctx)
			c.gate.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}()
	}

	// Distinct keys, repeated, alongside the parked herds.
	type request struct{ method, path, body string }
	var distinct []request
	for _, n := range []int{0, 1, 100, 3000, 9000, maxPooledBody, maxPooledBody + 1, 3 * maxPooledBody} {
		distinct = append(distinct, request{"GET", fmt.Sprintf("/v1/figures/sized-%d", n), ""})
	}
	for _, n := range []int{2000, 2 * maxPooledBody} {
		for _, lie := range []string{"short", "long"} {
			distinct = append(distinct, request{"GET", fmt.Sprintf("/v1/figures/sized-%d-%s", n, lie), ""})
		}
	}
	for _, cs := range []string{"example", "lcls-cori", "bgw-64"} {
		distinct = append(distinct, request{"POST", "/v1/model", fmt.Sprintf(`{"case":%q}`, cs)})
	}
	distinct = append(distinct, request{"GET", "/v1/figures/example.svg", ""})
	for _, rq := range distinct {
		for rider := 0; rider < 3; rider++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					expect(rq.method, rq.path, rq.body, c.do(rq.method, rq.path, rq.body, ""))
				}
			}()
		}
	}

	waitFor(t, func() bool {
		n, in := c.gate.flight.Waiting(serve.FigureKey("sized-5000"))
		return in && n == herd-1
	}, "herd never coalesced onto one flight")
	waitFor(t, func() bool { n, _ := c.gate.flight.Waiting(serve.FigureKey("sized-7000")); return n == quitters },
		"cancelling waiters never parked")
	cancel()
	quit.Wait()
	close(gates[cancelPath])
	close(gates[herdPath])
	wg.Wait()

	if n := herdCalls.Load(); n != 1 {
		t.Errorf("%d upstream calls for a %d-way herd, want 1", n, herd)
	}
	if n := cancelCalls.Load(); n != 1 {
		t.Errorf("%d upstream calls for the cancelled herd, want 1", n)
	}
	// Recycled buffers keep serving exact bytes after the storm.
	for _, rq := range distinct {
		expect(rq.method, rq.path, rq.body, c.do(rq.method, rq.path, rq.body, ""))
	}
}

// stallTransport holds every try to a stalled host until the try's
// context ends, then fails it with the context's error, recording when it
// gave up; other hosts go to next.
type stallTransport struct {
	next    http.RoundTripper
	mu      sync.Mutex
	stalled map[string]bool
	ended   []time.Time
}

func (t *stallTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	stall := t.stalled[req.URL.Host]
	t.mu.Unlock()
	if !stall {
		return t.next.RoundTrip(req)
	}
	<-req.Context().Done()
	t.mu.Lock()
	t.ended = append(t.ended, time.Now())
	t.mu.Unlock()
	return nil, req.Context().Err()
}

// TestGateFetchDeadline pins the upstream deadline: a try is cut off no
// earlier than Timeout and no later than Timeout+Timeout/32 after it
// starts, tries that start close together share one deadline, and a
// stalled owner's key then goes to the next replica in rendezvous order.
func TestGateFetchDeadline(t *testing.T) {
	const timeout = 40 * time.Millisecond
	// slack covers the gate's own work before the try and the wake-up
	// after the deadline.
	const slack = 20 * time.Millisecond
	c := newInprocGate(t, 3)
	st := &stallTransport{next: c.tr, stalled: map[string]bool{"replica-0": true}}
	g, err := New(Config{Backends: c.urls, Timeout: timeout, Client: &http.Client{Transport: st}})
	if err != nil {
		t.Fatal(err)
	}
	c.gate = g

	t.Run("window", func(t *testing.T) {
		// A new window opens only once the last stops taking tries, so
		// consecutive deadlines lie at least Timeout/32 apart.
		var last time.Time
		windows := 0
		for giveUp := time.Now().Add(time.Second); windows < 4 && time.Now().Before(giveUp); {
			before := time.Now()
			dl, ok := g.tryContext().Deadline()
			after := time.Now()
			if !ok {
				t.Fatal("try context has no deadline")
			}
			if dl.Sub(before) < timeout || dl.Sub(after) > timeout+timeout/32 {
				t.Fatalf("deadline %v after the try started, want %v to %v",
					dl.Sub(before), timeout, timeout+timeout/32)
			}
			if dl.Equal(last) {
				continue
			}
			if windows > 0 && dl.Sub(last) < timeout/32 {
				t.Fatalf("a new deadline %v after the last, want at least %v", dl.Sub(last), timeout/32)
			}
			windows++
			last = dl
		}
		if windows < 4 {
			t.Fatalf("%d deadline windows in a second, want 4", windows)
		}
	})

	t.Run("reroute", func(t *testing.T) {
		body := ownedModelBody(t, g, 0)
		next := g.ring.Owner(mustModelKey(t, body), func(i int) bool { return i != 0 })
		start := time.Now()
		rec := c.do("POST", "/v1/model", body, "")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != c.urls[next] {
			t.Fatalf("stalled owner: status %d from %q, want 200 from the next owner %q",
				rec.Code, rec.Header().Get("X-Backend"), c.urls[next])
		}
		st.mu.Lock()
		ended := st.ended
		st.mu.Unlock()
		if len(ended) != 1 {
			t.Fatalf("%d stalled tries, want 1", len(ended))
		}
		if took := ended[0].Sub(start); took < timeout || took > timeout+timeout/32+slack {
			t.Errorf("stalled try ended %v after the request, want %v to %v plus %v slack",
				took, timeout, timeout+timeout/32, slack)
		}
		if snap := g.MetricsSnapshot(); snap.Rerouted != 1 {
			t.Errorf("rerouted = %d, want 1", snap.Rerouted)
		}
	})

	t.Run("all stalled", func(t *testing.T) {
		st.mu.Lock()
		for i := range c.urls {
			st.stalled[fmt.Sprintf("replica-%d", i)] = true
		}
		st.mu.Unlock()
		if rec := c.do("POST", "/v1/model", ownedModelBody(t, g, 1), ""); rec.Code != http.StatusBadGateway {
			t.Errorf("every replica stalled: status %d, want 502", rec.Code)
		}
	})
}

// TestGateRedirectPassThrough pins that a replica's redirect is its
// answer: the gate makes one upstream call and hands the client the
// status and Location instead of following it.
func TestGateRedirectPassThrough(t *testing.T) {
	c := newInprocGate(t, 1)
	const moved, target = "/v1/figures/moved.svg", "/v1/figures/example.svg"
	replica := c.tr.handlers["replica-0"]
	c.tr.handlers["replica-0"] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == moved {
			http.Redirect(w, r, target, http.StatusTemporaryRedirect)
			return
		}
		replica.ServeHTTP(w, r)
	})
	rec := c.do("GET", moved, "", "")
	if rec.Code != http.StatusTemporaryRedirect || rec.Header().Get("Location") != target {
		t.Errorf("status %d, Location %q; want %d, %q", rec.Code, rec.Header().Get("Location"),
			http.StatusTemporaryRedirect, target)
	}
	if n := c.tr.calls.Load(); n != 1 {
		t.Errorf("%d upstream calls, want 1", n)
	}
}
