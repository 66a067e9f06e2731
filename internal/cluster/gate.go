// Package cluster is the horizontal scaling layer over wfserved: wfgate, an
// HTTP router that consistent-hashes each request's content address to an
// owner replica among N backends.
//
// The design rides on the toolkit's end-to-end determinism the same way the
// single-process cache does. Every cacheable request canonicalizes to a
// SHA-256 content address (the exact key a replica caches under, via the
// exported helpers in internal/serve), so routing by that hash sends every
// formatting variant of one spec to one owner — the cluster holds one copy
// of each rendered response instead of N, and a replica's hit ratio is
// independent of which clients talk to it. A gate-level singleflight
// coalesces identical concurrent requests cluster-wide, so a thundering
// herd costs one upstream round-trip and (because all members route to the
// same owner, whose own cache and singleflight dedupe sequential stragglers)
// exactly one evaluation across the cluster.
//
// Failure handling is fail-open: replicas are health-checked actively (a
// /healthz probe loop) and passively (a transport error marks the backend
// down on the spot), and a request whose owner is down reroutes to the
// key's next-highest rendezvous score — rehashing, not 502s. Rerouted
// requests carry an X-Peer-Owner header naming the primary owner, so the
// handling replica can try a peer cache-fill before evaluating locally
// (see internal/serve's peer API).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wroofline/internal/cas"
	"wroofline/internal/serve"
)

// Config tunes the gate.
type Config struct {
	// Backends lists the wfserved replica base URLs (at least one).
	Backends []string
	// ProbeInterval paces the health-check loop (default 500ms).
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe failures mark a replica down
	// (default 1: one failed probe window and traffic reroutes). Passive
	// detection is immediate regardless — a transport error on a live
	// request marks the backend down on the spot.
	FailAfter int
	// Timeout bounds one upstream try, shared by every rider of the flight
	// (default 30s, matching the replica evaluation budget). Tries that
	// start within Timeout/32 of each other share one deadline, so a try is
	// cut off after at least Timeout and at most Timeout+Timeout/32.
	Timeout time.Duration
	// Client supplies the upstream transport (tests and benchmarks inject
	// in-process ones). Only its Transport is used, http.DefaultTransport
	// when nil: the gate round-trips directly, so the client's Timeout,
	// Jar and CheckRedirect play no part, and a replica's redirect passes
	// through to the client unfollowed.
	Client *http.Client
	// Logger receives one structured record per backend state change; nil
	// discards.
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

const (
	// routeMemoEntries is the routing memo's fixed capacity (the replica's
	// default raw-body memo size).
	routeMemoEntries = 2048
	// probeTimeout bounds one /healthz probe.
	probeTimeout = time.Second
	// maxBodyBytes caps request bodies, matching wfserved's default.
	maxBodyBytes = 1 << 20
	// shards is the shard count of the singleflight table and the routing
	// memo.
	shards = 16
)

// maxPresizedBody caps the buffer a Content-Length header alone can make
// the gate allocate up front; longer or unsized bodies are read
// incrementally.
const maxPresizedBody = 4 << 20

// maxPooledBody caps the upstream bodies the gate recycles. A hit on the
// model, sweep or figure endpoints is a few KiB; a body past the cap is
// allocated per fetch and left to the collector, so an idle pooled buffer
// never pins more than twice the cap.
const maxPooledBody = 64 << 10

// bodyPool recycles upstream body buffers up to maxPooledBody. It holds
// *[]byte so that a Put does not allocate.
var bodyPool sync.Pool

// backend is one replica's live state.
type backend struct {
	url string
	// base is url parsed once, the root of every outbound request's target.
	base url.URL
	// up is the routing bit: probes and passive transport errors clear it,
	// a successful probe sets it. Starts true — optimistic, corrected
	// within one probe window or one failed request.
	up atomic.Bool
	// probeFails counts consecutive failed probes.
	probeFails atomic.Int32
	// requests counts successfully proxied requests (the skew numerator).
	requests atomic.Uint64
	// xBackend is the X-Backend header value naming this replica, built
	// once so every proxied response shares it.
	xBackend []string
}

// upstreamRequest is everything the gate forwards upstream: the routed
// method/path/body plus the headers that must survive the hop — the
// content type, and the admission headers (tenant, deadline, accept) that
// drive per-tenant fairness and deadline propagation on the replica. A
// coalesced flight forwards its first rider's headers.
type upstreamRequest struct {
	method string
	// path is the client's decoded path; rawPath its escaped form when the
	// client escaped it other than canonically (url.URL.RawPath).
	path     string
	rawPath  string
	ctype    string
	accept   string
	tenant   string
	deadline string
	body     []byte
}

// newUpstreamRequest snapshots the forwardable parts of a client request.
func newUpstreamRequest(r *http.Request, body []byte) *upstreamRequest {
	return &upstreamRequest{
		method:   r.Method,
		path:     r.URL.Path,
		rawPath:  r.URL.RawPath,
		ctype:    first(r.Header, "Content-Type"),
		accept:   first(r.Header, "Accept"),
		tenant:   first(r.Header, serve.TenantHeader),
		deadline: first(r.Header, serve.DeadlineHeader),
		body:     body,
	}
}

// build makes the outbound request to one backend without formatting or
// parsing a URL: the target is the backend's base URL, parsed once in New,
// plus the client's already-decoded path. Setting the decoded path lets
// RequestURI re-escape it, so a "%25", "%3F" or "%23" in a figure name
// reaches the replica as the name the gate routed on. The fields are the
// ones http.NewRequestWithContext sets (TestGateUpstreamRequestParity pins
// them): the body stays a known in-memory reader, so the transport sends
// it with the headers, and GetBody lets it retry on a stale keep-alive
// connection. Building cannot fail, so no backend is ever marked down for
// a request the gate could not express. ownerURL, when set, names the
// key's primary owner so the handling replica can try a peer cache-fill
// before evaluating locally.
func (u *upstreamRequest) build(ctx context.Context, b *backend, ownerURL string) *http.Request {
	target := b.base
	target.Path += u.path
	target.RawPath = ""
	if u.rawPath != "" {
		target.RawPath = b.base.EscapedPath() + u.rawPath
	}
	req := &http.Request{
		Method:     u.method,
		URL:        &target,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Body:       http.NoBody,
		Host:       target.Host,
	}
	if body := u.body; len(body) > 0 {
		req.ContentLength = int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	if u.ctype != "" {
		req.Header.Set("Content-Type", u.ctype)
	}
	if u.accept != "" {
		req.Header.Set("Accept", u.accept)
	}
	if u.tenant != "" {
		req.Header.Set(serve.TenantHeader, u.tenant)
	}
	if u.deadline != "" {
		req.Header.Set(serve.DeadlineHeader, u.deadline)
	}
	if ownerURL != "" {
		req.Header.Set(serve.PeerOwnerHeader, ownerURL)
	}
	return req.WithContext(ctx)
}

// upstreamResult is one fetched response, shared across a flight's riders.
// Its replayed headers are stamped once per fetch (the pattern of
// serve.Response.stampHeaders), so each rider's writeResult assigns
// prebuilt value slices instead of canonicalizing keys and allocating.
type upstreamResult struct {
	status int
	etag   string
	body   []byte
	// buf is the pooled buffer under body, nil when the body was allocated
	// for this fetch alone (see release).
	buf     *[]byte
	backend *backend
	// header holds the first nheader replayed upstream headers, in
	// canonical form; clen is the body's Content-Length value.
	header  [len(replayedHeaders)]headerValue
	nheader int
	clen    []string
}

// headerValue is one stamped response header.
type headerValue struct {
	key  string
	vals []string
}

// replayedHeaders are the upstream response headers the gate passes
// through, canonical keys: a shed replica's Retry-After is the client's
// backoff hint, so 503 + Retry-After survives the hop, and a redirect's
// Location reaches the client that is to follow it.
var replayedHeaders = [...]string{"Content-Type", "Etag", "X-Cache", "Retry-After", "Location"}

// first returns h's first value for key, or "". key must be in canonical
// form, as every key the gate reads is: this is http.Header.Get without
// canonicalizing the key on each call.
func first(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// newUpstreamResult wraps a fetched response's status and body and stamps
// its replayed headers. The value slices share one backing array and are
// capped at length one, so an append by any writer copies instead of
// clobbering a neighbour.
func newUpstreamResult(resp *http.Response, body []byte, buf *[]byte) *upstreamResult {
	res := &upstreamResult{status: resp.StatusCode, body: body, buf: buf, etag: first(resp.Header, "Etag")}
	vals := make([]string, len(replayedHeaders)+1)
	for i, k := range replayedHeaders {
		if v := first(resp.Header, k); v != "" {
			vals[i] = v
			res.header[res.nheader] = headerValue{k, vals[i : i+1 : i+1]}
			res.nheader++
		}
	}
	n := len(replayedHeaders)
	vals[n] = strconv.Itoa(len(body))
	res.clen = vals[n : n+1 : n+1]
	return res
}

// release hands a pooled body buffer back for the next fetch. Only a
// flight leader that ran alone (cas.Alone) may call it, and only after its
// write: no other rider holds the result, and an io.Writer must not retain
// the bytes it was given. The result is left without a body, so any later
// use shows as a missing body, never as another fetch's bytes.
func (res *upstreamResult) release() {
	if res.buf != nil {
		bodyPool.Put(res.buf)
	}
	res.body, res.buf = nil, nil
}

// Gate is the cluster router. Create with New, mount via Handler, start
// health probes with Start.
type Gate struct {
	cfg      Config
	backends []*backend
	ring     *Ring
	// flight is the cluster-wide singleflight: identical concurrent
	// requests share one upstream fetch. Combined with hash routing this
	// pins a thundering herd spread across gate clients to one upstream
	// request, and so to exactly one evaluation cluster-wide.
	flight *cas.Flight[*upstreamResult]
	// routes memoizes raw request body → routing key (see routeKey). It
	// holds keys only, never response bodies, at a fixed capacity.
	routes *cas.LRU[serve.Key]
	// transport carries every upstream request: Config.Client's Transport,
	// resolved once in New.
	transport http.RoundTripper
	// window is the current deadline window of buffered tries (see
	// tryContext).
	window atomic.Pointer[deadlineWindow]
	mux    *http.ServeMux

	// streamMu guards streams, the in-flight tee table for streaming
	// requests (see stream.go).
	streamMu sync.Mutex
	streams  map[serve.Key]*streamFlight

	rerouted        atomic.Uint64
	coalesced       atomic.Uint64
	upstreamErrors  atomic.Uint64
	notModified     atomic.Uint64
	streamed        atomic.Uint64
	streamCoalesced atomic.Uint64
}

// New builds a gate over the configured backends.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	urls := make([]string, len(cfg.Backends))
	bases := make([]*url.URL, len(cfg.Backends))
	seen := make(map[string]bool, len(cfg.Backends))
	for i, u := range cfg.Backends {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		base, err := url.Parse(u)
		if err != nil || (base.Scheme != "http" && base.Scheme != "https") || base.Host == "" ||
			base.RawQuery != "" || base.Fragment != "" {
			return nil, fmt.Errorf("cluster: backend %q is not a base URL", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", u)
		}
		seen[u] = true
		// The empty-port form "host:" is "host", as NewRequest reads it.
		base.Host = strings.TrimSuffix(base.Host, ":")
		urls[i], bases[i] = u, base
	}
	g := &Gate{
		cfg:       cfg,
		ring:      NewRing(urls),
		flight:    cas.NewFlight[*upstreamResult](shards),
		routes:    cas.NewLRU[serve.Key](routeMemoEntries, shards),
		transport: http.DefaultTransport,
		mux:       http.NewServeMux(),
		streams:   make(map[serve.Key]*streamFlight),
	}
	if cfg.Client != nil && cfg.Client.Transport != nil {
		g.transport = cfg.Client.Transport
	}
	g.backends = make([]*backend, len(urls))
	for i, u := range urls {
		g.backends[i] = &backend{url: u, base: *bases[i], xBackend: []string{u}}
		g.backends[i].up.Store(true)
	}
	modelKey := g.routeKey("route-model", serve.ModelKey)
	sweepKey := g.routeKey("route-sweep", serve.SweepKey)
	g.mux.HandleFunc("POST /v1/model", func(w http.ResponseWriter, r *http.Request) {
		g.proxy(w, r, modelKey)
	})
	g.mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		// The same Accept negotiation the replica applies: a streaming
		// client must tee through the stream path, or the gate would
		// buffer the replica's progressive response back into one blob.
		if stream, _ := serve.StreamFraming(r); stream {
			g.streamProxy(w, r, sweepKey)
			return
		}
		g.proxy(w, r, sweepKey)
	})
	g.mux.HandleFunc("POST /v1/sweep/stream", func(w http.ResponseWriter, r *http.Request) {
		g.streamProxy(w, r, sweepKey)
	})
	g.mux.HandleFunc("GET /v1/figures/{name}", func(w http.ResponseWriter, r *http.Request) {
		g.proxy(w, r, func([]byte) serve.Key { return serve.FigureKey(r.PathValue("name")) })
	})
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// routeKey adapts a canonicalizing key function into a routing-key
// function memoized on the raw body: kind tags the endpoint, and a
// byte-identical repeat of a body skips JSON canonicalization (the gate's
// counterpart of the replica's rawKeys memo). A body the canonicalizer
// rejects is still routed (and coalesced) deterministically by its raw
// hash, so the owning replica renders the 400 exactly once per herd; that
// fallback is memoized too.
func (g *Gate) routeKey(kind string, keyFn func([]byte) (serve.Key, error)) func([]byte) serve.Key {
	return func(body []byte) serve.Key {
		raw := serve.ContentKey(kind, body)
		if k, ok := g.routes.Get(raw); ok {
			return k
		}
		k, err := keyFn(body)
		if err != nil {
			k = serve.ContentKey("raw-route", body)
		}
		g.routes.Put(raw, k)
		return k
	}
}

// Handler returns the routed HTTP handler.
func (g *Gate) Handler() http.Handler { return g.mux }

// Start launches the health-probe loop; it stops when ctx is cancelled.
func (g *Gate) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(g.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.ProbeNow(ctx)
			}
		}
	}()
}

// ProbeNow runs one synchronous health sweep over every backend (the probe
// loop's body; exported so tests can step the clock deterministically).
func (g *Gate) ProbeNow(ctx context.Context) {
	for _, b := range g.backends {
		probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
		ok := g.probe(probeCtx, b)
		cancel()
		switch {
		case ok:
			b.probeFails.Store(0)
			if !b.up.Swap(true) {
				g.cfg.Logger.Info("backend recovered", "backend", b.url)
			}
		case int(b.probeFails.Add(1)) >= g.cfg.FailAfter:
			if b.up.Swap(false) {
				g.cfg.Logger.Warn("backend down", "backend", b.url,
					"consecutive_failures", b.probeFails.Load())
			}
		}
	}
}

// probe checks one backend's liveness.
func (g *Gate) probe(ctx context.Context, b *backend) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.transport.RoundTrip(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// markDown records a passive failure: the backend dropped a live request,
// so it leaves the rotation immediately rather than waiting for a probe.
func (g *Gate) markDown(b *backend) {
	if b.up.Swap(false) {
		g.cfg.Logger.Warn("backend down (transport error)", "backend", b.url)
	}
}

// isUp is the ring filter for live routing.
func (g *Gate) isUp(i int) bool { return g.backends[i].up.Load() }

// proxy is the shared request path: read the body, canonicalize to the
// routing key, coalesce identical concurrent requests onto one upstream
// fetch, and write the shared result — applying If-None-Match per client,
// since coalesced riders may each hold different validators.
func (g *Gate) proxy(w http.ResponseWriter, r *http.Request, keyFn func([]byte) serve.Key) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	key := keyFn(body)
	ureq := newUpstreamRequest(r, body)
	res, err, role := g.flight.Do(r.Context(), key, func() (*upstreamResult, error) {
		return g.fetch(key, ureq)
	})
	if role == cas.Waiter {
		g.coalesced.Add(1)
	}
	if err != nil {
		if r.Context().Err() != nil {
			// The client hung up; the connection is gone, so the status is
			// bookkeeping only.
			return
		}
		writeProblem(w, http.StatusBadGateway, err.Error())
		return
	}
	g.writeResult(w, r, res)
	if role == cas.Alone {
		// Nobody else holds the result and its write is done, so its body
		// buffer can take the next fetch. A shared result is never
		// recycled: another rider may still be writing it.
		res.release()
	}
}

// readBody drains a capped request body, writing the problem response
// itself on failure; the second return reports success.
func (g *Gate) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	var (
		body []byte
		err  error
	)
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		body, err = readExact(r.Body, n)
	} else {
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	}
	if err != nil {
		writeProblem(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return nil, false
	}
	if int64(len(body)) > maxBodyBytes {
		writeProblem(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		return nil, false
	}
	return body, true
}

// failover walks the key's rendezvous order for one upstream request: the
// highest-scoring live replica first, then down the order as transport
// errors (connection refused, resets, timeouts) knock replicas out. HTTP
// error statuses are not failures — a replica's 400 or 503 is its answer
// and passes through verbatim. When every replica looks down the walk
// fails open to the primary owner: if the whole cluster bounced, optimism
// recovers faster than refusing traffic. A request rerouted away from the
// primary owner names it (ownerURL, sent as X-Peer-Owner) so the replica
// can fill from its cache.
//
// try sends the request to b. Its error counts as an upstream error and
// marks b down; the walk then goes on unless ctx has ended. The first
// replica that answers is returned.
func (g *Gate) failover(ctx context.Context, key serve.Key, try func(b *backend, ownerURL string) error) (*backend, error) {
	primary := g.ring.Owner(key, nil)
	tried := make([]bool, len(g.backends))
	for range g.backends {
		idx := g.ring.Owner(key, func(i int) bool { return !tried[i] && g.isUp(i) })
		if idx < 0 {
			idx = g.ring.Owner(key, func(i int) bool { return !tried[i] })
		}
		if idx < 0 {
			break
		}
		tried[idx] = true
		b := g.backends[idx]
		ownerURL := ""
		if idx != primary {
			ownerURL = g.backends[primary].url
		}
		if err := try(b, ownerURL); err != nil {
			g.upstreamErrors.Add(1)
			g.markDown(b)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		if idx != primary {
			g.rerouted.Add(1)
		}
		b.requests.Add(1)
		return b, nil
	}
	return nil, fmt.Errorf("all %d backends unreachable", len(g.backends))
}

// fetch routes one buffered upstream request down the key's failover walk.
func (g *Gate) fetch(key serve.Key, ureq *upstreamRequest) (*upstreamResult, error) {
	var res *upstreamResult
	b, err := g.failover(context.Background(), key, func(b *backend, ownerURL string) (err error) {
		res, err = g.roundTrip(b, ureq, ownerURL)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.backend = b
	return res, nil
}

// deadlineWindow is one deadline shared by the upstream tries that start
// within Timeout/32 of its opening: ctx ends Timeout+Timeout/32 after the
// opening, so each of those tries gets at least Timeout. One timer then
// serves every try in the window instead of one per try.
type deadlineWindow struct {
	ctx context.Context
	// cancel is never called on a window that was installed: its tries
	// may still be running, and the deadline releases it.
	cancel context.CancelFunc
	// until is when the window stops taking new tries.
	until time.Time
}

// tryContext returns the context for one buffered upstream try: the
// current deadline window's, or a new window's once the current one stops
// taking tries. It takes no lock. A racer that loses the swap discards its
// own window and takes the winner's.
func (g *Gate) tryContext() context.Context {
	span := g.cfg.Timeout / 32
	for {
		cur := g.window.Load()
		now := time.Now()
		if cur != nil && now.Before(cur.until) {
			return cur.ctx
		}
		ctx, cancel := context.WithDeadline(context.Background(), now.Add(g.cfg.Timeout+span))
		if g.window.CompareAndSwap(cur, &deadlineWindow{ctx: ctx, cancel: cancel, until: now.Add(span)}) {
			return ctx
		}
		cancel()
	}
}

// roundTrip issues one upstream request and buffers the response. ownerURL
// names the primary owner when the request was rerouted away from it
// (empty otherwise). The context is detached from any single client — the
// result is shared by every rider of the flight, so the first client
// hanging up must not cancel it (the same contract as the replica's
// evaluate). Each try takes its own deadline window, so a try that timed
// out leaves the next replica a full Timeout.
func (g *Gate) roundTrip(b *backend, ureq *upstreamRequest, ownerURL string) (*upstreamResult, error) {
	resp, err := g.transport.RoundTrip(ureq.build(g.tryContext(), b, ownerURL))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, buf, err := readUpstream(resp)
	if err != nil {
		return nil, err
	}
	return newUpstreamResult(resp, body, buf), nil
}

// readUpstream buffers an upstream response body. A declared length up to
// maxPooledBody is read into a pooled buffer, returned as buf for release;
// one up to maxPresizedBody into one exactly sized buffer; an unknown or
// larger one grows incrementally. A body that ends short of its declared
// length, or runs past it, is an error — the caller treats it like any
// other transport failure, so a truncated body is never served. A failed
// read's buffer is dropped, never pooled.
func readUpstream(resp *http.Response) (body []byte, buf *[]byte, err error) {
	n := resp.ContentLength
	switch {
	case n >= 0 && n <= maxPooledBody:
		buf, _ = bodyPool.Get().(*[]byte)
		if buf == nil {
			buf = new([]byte)
		}
		if int64(cap(*buf)) <= n {
			// Rounded up to a power of two (always past n, leaving the
			// probe byte), so buffers settle at the largest size in use.
			*buf = make([]byte, 1<<bits.Len64(uint64(n)))
		}
		body = (*buf)[:n]
		if err := readInto(resp.Body, body); err != nil {
			return nil, nil, err
		}
		return body, buf, nil
	case n >= 0 && n <= maxPresizedBody:
		body, err = readExact(resp.Body, n)
		return body, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	if err == nil && n >= 0 && int64(len(body)) != n {
		err = fmt.Errorf("body is %d bytes, declared %d", len(body), n)
	}
	return body, nil, err
}

// readExact reads a body of declared length n into one buffer of exactly
// that size. Ending short of n, or running past it, is an error.
func readExact(rd io.Reader, n int64) ([]byte, error) {
	// One spare byte of capacity lets the end-of-body probe read without a
	// second allocation.
	buf := make([]byte, n, n+1)
	if err := readInto(rd, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readInto fills buf from rd, which must end exactly there: ending short,
// or running past it, is an error. buf needs one spare byte of capacity
// for the end-of-body probe.
func readInto(rd io.Reader, buf []byte) error {
	if _, err := io.ReadFull(rd, buf); err != nil {
		return err
	}
	// The probe's error is dropped: every declared byte has arrived, so
	// only a byte past the end makes the body wrong.
	n := len(buf)
	if extra, _ := rd.Read(buf[n : n+1]); extra > 0 {
		return fmt.Errorf("body runs past its declared %d bytes", n)
	}
	return nil
}

// writeResult renders a shared upstream result to one client, applying
// that client's conditional headers against the shared validator.
func (g *Gate) writeResult(w http.ResponseWriter, r *http.Request, res *upstreamResult) {
	h := w.Header()
	for _, f := range res.header[:res.nheader] {
		h[f.key] = f.vals
	}
	h["X-Backend"] = res.backend.xBackend
	if res.status == http.StatusOK && res.etag != "" {
		if match := first(r.Header, "If-None-Match"); match != "" && serve.ETagMatch(match, res.etag) {
			g.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h["Content-Length"] = res.clen
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// writeProblem renders a gate-originated error as the replicas' JSON
// problem document.
func writeProblem(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(serve.ProblemBody(status, msg))
}

// handleHealthz reports the gate's own liveness plus each backend's
// routing state.
func (g *Gate) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type be struct {
		URL string `json:"url"`
		Up  bool   `json:"up"`
	}
	out := struct {
		Status   string `json:"status"`
		Backends []be   `json:"backends"`
	}{Status: "ok"}
	for _, b := range g.backends {
		out.Backends = append(out.Backends, be{URL: b.url, Up: b.up.Load()})
	}
	data, _ := json.Marshal(out)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// BackendSnapshot is one replica's slice of the gate counters.
type BackendSnapshot struct {
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Requests uint64 `json:"requests"`
}

// Snapshot is the gate's /metrics payload: per-backend routing counts (the
// request-skew table) plus the cluster-level coalescing and failover
// counters.
type Snapshot struct {
	Backends       []BackendSnapshot `json:"backends"`
	Rerouted       uint64            `json:"rerouted"`
	Coalesced      uint64            `json:"coalesced"`
	UpstreamErrors uint64            `json:"upstream_errors"`
	NotModified    uint64            `json:"not_modified"`
	// Streamed counts streaming responses pumped through the gate;
	// StreamCoalesced the followers that teed an owner's stream instead of
	// opening their own upstream fetch. Omitted when zero so the
	// pre-streaming snapshot shape is unchanged.
	Streamed        uint64 `json:"streamed,omitempty"`
	StreamCoalesced uint64 `json:"stream_coalesced,omitempty"`
}

// MetricsSnapshot returns the current counters.
func (g *Gate) MetricsSnapshot() Snapshot {
	snap := Snapshot{
		Rerouted:        g.rerouted.Load(),
		Coalesced:       g.coalesced.Load(),
		UpstreamErrors:  g.upstreamErrors.Load(),
		NotModified:     g.notModified.Load(),
		Streamed:        g.streamed.Load(),
		StreamCoalesced: g.streamCoalesced.Load(),
	}
	for _, b := range g.backends {
		snap.Backends = append(snap.Backends, BackendSnapshot{
			URL: b.url, Up: b.up.Load(), Requests: b.requests.Load(),
		})
	}
	return snap
}

// handleMetrics renders the counter snapshot as JSON.
func (g *Gate) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	data, err := json.MarshalIndent(g.MetricsSnapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
