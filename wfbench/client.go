package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"wroofline/internal/cluster"
	"wroofline/internal/serve"
)

// recorder is the client's reusable http.ResponseWriter. It keeps the body
// for the correctness checks and stamps the first body byte, the
// time-to-first-byte. Streamed writes arrive from a sweep worker goroutine
// while the handler goroutine waits inside ServeHTTP, so the handler's
// return orders them before the client reads anything.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
	first  time.Time
}

func newRecorder() *recorder { return &recorder{h: make(http.Header, 8)} }

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if len(p) > 0 && w.first.IsZero() {
		w.first = time.Now()
	}
	return w.body.Write(p)
}

// Flush satisfies http.Flusher so the server streams instead of buffering.
func (w *recorder) Flush() {}

func (w *recorder) reset() {
	clear(w.h)
	w.status = 0
	w.body.Reset()
	w.first = time.Time{}
}

// replayBody is a rewindable request body (io.NopCloser would allocate per
// request).
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// reqSlot is one reusable *http.Request per (method, path, stream) shape.
type reqSlot struct {
	req *http.Request
	rd  *replayBody
}

type slotKey struct {
	method, path, etag string
	stream             bool
}

// requests hands out reusable requests so the client loop allocates
// nothing of its own per request.
type requests struct {
	slots map[slotKey]*reqSlot
}

func newRequests() *requests { return &requests{slots: map[slotKey]*reqSlot{}} }

// prepare loads rq into its reusable *http.Request. etag, when non-empty,
// is sent as If-None-Match.
func (rs *requests) prepare(rq request, etag string) *http.Request {
	k := slotKey{rq.method, rq.path, etag, rq.stream}
	s := rs.slots[k]
	if s == nil {
		s = &reqSlot{rd: &replayBody{}}
		s.req = httptest.NewRequest(rq.method, rq.path, nil)
		if rq.stream {
			s.req.Header.Set("Accept", serve.ContentTypeNDJSON)
		}
		if etag != "" {
			s.req.Header.Set("If-None-Match", etag)
		}
		rs.slots[k] = s
	}
	if rq.method == http.MethodPost {
		s.rd.Reset(rq.body)
		s.req.Body = s.rd
		s.req.ContentLength = int64(len(rq.body))
	} else {
		s.req.Body = http.NoBody
		s.req.ContentLength = 0
	}
	return s.req
}

// transport is the dashboard's in-process RoundTripper: replica base URLs
// resolve straight to serve handlers, with no sockets. When span is set
// (the traced run), each replica call is timed as a child span of the
// request's gate span.
type transport struct {
	replicas map[string]http.Handler
	pool     sync.Pool
	span     func() (done func())
}

// transportResponse is the pooled per-call state: the replica writes into
// rec, and closing the body hands everything back for reuse. The gate
// copies the body out before it closes it.
type transportResponse struct {
	t    *transport
	rec  *recorder
	rd   bytes.Reader
	resp http.Response
}

func (b *transportResponse) Read(p []byte) (int, error) { return b.rd.Read(p) }
func (b *transportResponse) Close() error {
	b.resp = http.Response{}
	b.t.pool.Put(b)
	return nil
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.replicas[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("wfbench: no replica %q", req.URL.Host)
	}
	tr, _ := t.pool.Get().(*transportResponse)
	if tr == nil {
		tr = &transportResponse{t: t, rec: newRecorder()}
	}
	tr.rec.reset()
	if t.span != nil {
		done := t.span()
		h.ServeHTTP(tr.rec, req)
		done()
	} else {
		h.ServeHTTP(tr.rec, req)
	}
	tr.rd.Reset(tr.rec.body.Bytes())
	status := tr.rec.status
	if status == 0 {
		status = http.StatusOK
	}
	tr.resp = http.Response{
		StatusCode:    status,
		Header:        tr.rec.h,
		Body:          tr,
		ContentLength: int64(tr.rec.body.Len()),
		Request:       req,
	}
	return &tr.resp, nil
}

// rig is one set-up: the servers a run measures and the handler the client
// calls.
type rig struct {
	handler  http.Handler
	servers  []*serve.Server
	gate     *cluster.Gate
	tr       *transport
	pool     []poolEntry // dashboard
	poolResp [][]byte    // dashboard: body of each pool entry after warm-up
	etags    []string    // dashboard: ETag of each pool entry
	reqs     *requests
	w        *recorder
}

// serverConfig is the configuration of every measured server. The sweep
// pool is pinned to one worker: with one client, a request's layer costs
// then run one after another and add up to its latency, which is what the
// traced run decomposes. Everything else is the production default.
func serverConfig() serve.Config { return serve.Config{Workers: 1} }

// dashboardReplayPasses is how many times the dashboard warm-up replays
// the whole pool after priming it, so the timed window starts on a warm
// hit path rather than on first-touch costs.
const dashboardReplayPasses = 200

// setUp builds a workload's servers and runs its warm-up pass.
func setUp(w *workload, seed uint64) (*rig, error) {
	r := &rig{reqs: newRequests(), w: newRecorder()}
	if w.gate {
		r.tr = &transport{replicas: map[string]http.Handler{}}
		urls := []string{"http://replica-0", "http://replica-1"}
		for _, u := range urls {
			s := serve.New(serverConfig())
			r.servers = append(r.servers, s)
			r.tr.replicas[u[len("http://"):]] = s.Handler()
		}
		// The probe loop stays unstarted (no Gate.Start): no periodic
		// health traffic lands in the timed window.
		g, err := cluster.New(cluster.Config{Backends: urls, Client: &http.Client{Transport: r.tr}})
		if err != nil {
			return nil, err
		}
		r.gate, r.handler = g, g.Handler()
		return r, r.warmDashboard()
	}
	s := serve.New(serverConfig())
	r.servers = []*serve.Server{s}
	r.handler = s.Handler()
	gen := w.stream(seed)
	for i := 0; i < w.warmup; i++ {
		rq := gen.next()
		r.do(rq)
		if err := r.check(rq); err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return r, nil
}

// warmDashboard primes every pool entry through the gate (the only cold
// evaluations the dashboard ever runs), records its bytes and validator,
// then replays the pool until the hit path is warm.
func (r *rig) warmDashboard() error {
	r.pool = dashboardPool()
	r.poolResp = make([][]byte, len(r.pool))
	r.etags = make([]string, len(r.pool))
	for i, e := range r.pool {
		r.do(request{method: e.method, path: e.path, body: e.body, pool: i})
		if r.w.status != http.StatusOK {
			return fmt.Errorf("prime %s %s: status %d: %s", e.method, e.path, r.w.status, r.w.body.Bytes())
		}
		r.poolResp[i] = bytes.Clone(r.w.body.Bytes())
		r.etags[i] = r.w.h.Get("ETag")
		if r.etags[i] == "" {
			return fmt.Errorf("prime %s %s: no ETag", e.method, e.path)
		}
	}
	for pass := 0; pass < dashboardReplayPasses; pass++ {
		for i, e := range r.pool {
			rq := request{method: e.method, path: e.path, body: e.body, pool: i}
			r.do(rq)
			if err := r.check(rq); err != nil {
				return err
			}
		}
	}
	return nil
}

// do sends one request through the rig's handler into r.w.
func (r *rig) do(rq request) {
	etag := ""
	if rq.revalidate {
		etag = r.etags[rq.pool]
	}
	req := r.reqs.prepare(rq, etag)
	r.w.reset()
	r.handler.ServeHTTP(r.w, req)
	if r.w.status == 0 {
		r.w.status = http.StatusOK
	}
}

// check validates the response in r.w for rq. The dashboard
// compares every body byte for byte with the pool entry's warm-up bytes,
// which the oracle checks against a reference server; scan and explore
// check shape here and bytes on an oracle sample.
func (r *rig) check(rq request) error {
	got := r.w.body.Bytes()
	switch {
	case rq.revalidate:
		if r.w.status != http.StatusNotModified || len(got) != 0 {
			return fmt.Errorf("%s %s revalidation: status %d with %d body bytes, want 304 and none",
				rq.method, rq.path, r.w.status, len(got))
		}
		return nil
	case r.w.status != http.StatusOK:
		return fmt.Errorf("%s %s: status %d: %.200s", rq.method, rq.path, r.w.status, got)
	case rq.pool >= 0 && r.poolResp != nil:
		if !bytes.Equal(got, r.poolResp[rq.pool]) {
			return fmt.Errorf("%s %s: body differs from the verified pool bytes", rq.method, rq.path)
		}
		return nil
	case rq.stream:
		_, err := streamFinal(got)
		return err
	}
	if len(got) < 2 || got[0] != '{' || got[len(got)-1] != '\n' {
		return fmt.Errorf("%s %s: body is not one JSON document: %.200s", rq.method, rq.path, got)
	}
	return nil
}

var progressPrefix = []byte(`{"event":"progress",`)

// streamFinal checks an NDJSON sweep stream (progress lines, then the
// result line) and returns the final line, newline included. A stream may
// carry no progress line: when a wider pool completes the first chunk
// last, the frontier jumps straight to the end.
func streamFinal(body []byte) ([]byte, error) {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return nil, fmt.Errorf("stream does not end in a newline")
	}
	i := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
	final := body[i:]
	if !bytes.HasPrefix(final, []byte(`{"kind":`)) {
		return nil, fmt.Errorf("stream final line is not a result: %.200s", final)
	}
	for rest := body[:i]; len(rest) > 0; {
		j := bytes.IndexByte(rest, '\n')
		if !bytes.HasPrefix(rest[:j], progressPrefix) {
			return nil, fmt.Errorf("stream line is not progress: %.200s", rest[:j])
		}
		rest = rest[j+1:]
	}
	return final, nil
}

// window is what one timed closed-loop window measured.
type window struct {
	elapsed   time.Duration
	attempted int
	failed    int
	latMS     []float64 // successful requests only
	ttfbMS    []float64
	classes   []uint8 // class of each latency sample
	// sliceOps counts the successful requests completed in each whole
	// throughputSlice of the window.
	sliceOps  []int
	before    procSample
	after     procSample
	snapsFrom []serve.Snapshot
	snapsTo   []serve.Snapshot
	gateFrom  cluster.Snapshot
	gateTo    cluster.Snapshot
	samples   []oracleSample
	errs      []string
	frees     []func()
}

// throughputSlice is the period throughput is counted over: throughput_ops
// is the median of the per-slice rates, so a brief stall of the shared host
// moves one slice rather than the whole figure.
const throughputSlice = time.Second

// maxWindowSamples bounds the sample buffers; a window that outruns it
// stops early rather than grow them inside the measurement.
const maxWindowSamples = 1 << 21

// runWindow drives the closed loop for d with one client and no tracing.
// sampled picks the stream indices the oracle re-checks after the window.
// The caller releases the window's sample buffers with free.
func runWindow(r *rig, gen generator, d time.Duration, sampled map[int]bool) (*window, error) {
	win := &window{}
	for _, buf := range []*[]float64{&win.latMS, &win.ttfbMS} {
		s, free, err := offHeap[float64](maxWindowSamples)
		if err != nil {
			win.free()
			return nil, err
		}
		*buf = s
		win.frees = append(win.frees, free)
	}
	classes, free, err := offHeap[uint8](maxWindowSamples)
	if err != nil {
		win.free()
		return nil, err
	}
	win.classes = classes
	win.frees = append(win.frees, free)
	win.snapsFrom = snapshots(r)
	if r.gate != nil {
		win.gateFrom = r.gate.MetricsSnapshot()
	}
	runtime.GC()
	win.before = sampleProc()
	deadline := win.before.wall.Add(d)
	sliceEnd, sliceOps := win.before.wall.Add(throughputSlice), 0
	for i := 0; len(win.latMS) < maxWindowSamples; i++ {
		rq := gen.next()
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		r.do(rq)
		t1 := time.Now()
		for !t1.Before(sliceEnd) {
			win.sliceOps = append(win.sliceOps, sliceOps)
			sliceEnd, sliceOps = sliceEnd.Add(throughputSlice), 0
		}
		win.attempted++
		if err := r.check(rq); err != nil {
			win.failed++
			win.errs = appendErr(win.errs, err)
			continue
		}
		first := r.w.first
		if first.IsZero() {
			first = t1 // a 304 carries no body: its first byte is the end
		}
		win.latMS = append(win.latMS, float64(t1.Sub(t0))/1e6)
		win.ttfbMS = append(win.ttfbMS, float64(first.Sub(t0))/1e6)
		win.classes = append(win.classes, uint8(rq.class))
		sliceOps++
		if sampled[i] {
			win.samples = append(win.samples, oracleSample{index: i, req: rq, reqBody: bytes.Clone(rq.body), got: bytes.Clone(r.w.body.Bytes())})
		}
	}
	win.after = sampleProc()
	if !win.after.wall.Before(sliceEnd) {
		win.sliceOps = append(win.sliceOps, sliceOps)
	}
	win.elapsed = win.after.wall.Sub(win.before.wall)
	win.snapsTo = snapshots(r)
	if r.gate != nil {
		win.gateTo = r.gate.MetricsSnapshot()
	}
	return win, nil
}

// free unmaps the sample buffers; the window's samples are gone after it.
func (win *window) free() {
	for _, f := range win.frees {
		f()
	}
	win.frees, win.latMS, win.ttfbMS, win.classes = nil, nil, nil, nil
}

// throughput is the median per-slice rate of successful requests; a window
// shorter than one slice reports its overall rate.
func (win *window) throughput() float64 {
	if len(win.sliceOps) == 0 {
		return float64(len(win.latMS)) / win.elapsed.Seconds()
	}
	rates := make([]float64, len(win.sliceOps))
	for i, n := range win.sliceOps {
		rates[i] = float64(n) / throughputSlice.Seconds()
	}
	return median(rates)
}

func snapshots(r *rig) []serve.Snapshot {
	out := make([]serve.Snapshot, len(r.servers))
	for i, s := range r.servers {
		out[i] = s.MetricsSnapshot()
	}
	return out
}

// appendErr keeps the first few failure messages for the report.
func appendErr(errs []string, err error) []string {
	if len(errs) < 8 {
		errs = append(errs, err.Error())
	}
	return errs
}

// call sends one request to a handler outside any measurement and returns
// status and body.
func call(h http.Handler, method, path string, body []byte, stream bool) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(context.Background())
	if stream {
		req.Header.Set("Accept", serve.ContentTypeNDJSON)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, out
}

// counterDelta sums a serve counter over the replicas between two
// snapshot sets.
func counterDelta(from, to []serve.Snapshot, f func(serve.Snapshot) uint64) float64 {
	var d float64
	for i := range to {
		d += float64(f(to[i])) - float64(f(from[i]))
	}
	return d
}

// non2xx counts non-2xx responses across every endpoint of a snapshot.
func non2xx(s serve.Snapshot) uint64 {
	var n uint64
	for _, ep := range s.Requests {
		for code, c := range ep.ByStatus {
			if v, err := strconv.Atoi(code); err != nil || v < 200 || v > 299 {
				n += c
			}
		}
	}
	return n
}
