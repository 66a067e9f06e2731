// Package serve is the Workflow Roofline analysis service: a long-running
// HTTP front end over the model (internal/core), the ensemble engine
// (internal/study on internal/sweep), and the figure catalog
// (internal/figures).
//
// The hot path exploits the toolkit's end-to-end determinism. Every request
// is canonicalized (strict parse, fixed-order re-encoding, worker counts
// normalized away) and hashed; the SHA-256 content address keys an LRU of
// fully rendered responses. Because identical specs evaluate to identical
// bytes, a cache hit, a coalesced flight, and a cold evaluation are
// indistinguishable to the client — the tests assert byte equality across
// all three paths. Concurrent identical requests collapse onto one
// evaluation (singleflight), and distinct evaluations run under a bounded
// queue with a per-request timeout, so a burst of heavyweight sweeps
// degrades into orderly 503s instead of unbounded goroutines.
//
// The request path is built to scale with cores: the response cache, a
// raw-request memo (byte-identical request bodies skip JSON parsing
// entirely), and the singleflight table are all sharded by the first byte
// of the SHA-256 key, metrics are atomics on a pre-registered route table,
// and the hit path recycles its buffers, hash scratch, and status recorders
// through pools — concurrent hits on distinct keys share no mutex and
// allocate nothing in the serve layer.
//
// Endpoints:
//
//	POST /v1/model          bounds + classification + advice for a spec
//	POST /v1/sweep          montecarlo/grid/survey studies (wfsweep specs)
//	GET  /v1/figures/{name} paper figures as SVG (e.g. example.svg)
//	GET  /healthz           liveness
//	GET  /metrics           counters, latency histograms + percentiles,
//	                        cache hit ratio
package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wroofline/internal/cas"
	"wroofline/internal/core"
	"wroofline/internal/failure"
	"wroofline/internal/figures"
	"wroofline/internal/machine"
	"wroofline/internal/plancache"
	"wroofline/internal/plot"
	"wroofline/internal/report"
	"wroofline/internal/study"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
	"wroofline/internal/workloads"
)

// Config tunes the service.
type Config struct {
	// Workers caps the sweep pool per evaluation (0 = GOMAXPROCS). It
	// overrides the worker count in submitted specs: results are identical
	// at any pool size, so the server, not the client, owns the parallelism
	// budget.
	Workers int
	// CacheEntries bounds the content-addressed LRU (default 512).
	CacheEntries int
	// PlanCacheEntries bounds the second-level plan cache (internal/plancache):
	// compiled sim.Plans, built core.Models, and generated corpus scenarios,
	// keyed by evaluation identity and shared across requests that vary only
	// trials/seed/workers/batch/streaming. 0 selects the default (512);
	// negative disables the plan cache entirely, restoring fresh
	// generate/build/compile on every evaluation (the differential tests run
	// both ways and assert byte-identical responses).
	PlanCacheEntries int
	// Shards sets the shard count for the response cache, the raw-request
	// memo, and the singleflight table (default 16). Rounded up to a power
	// of two and clamped to [1, 256]; small caches fall back to fewer
	// shards so each shard keeps at least two entries, and a tiny cache to
	// exactly one shard (strict global LRU).
	Shards int
	// QueueDepth bounds concurrent evaluations; requests beyond it wait for
	// a slot until their timeout (default 4). Slots are granted across
	// per-tenant queues by weighted-fair scheduling — see MaxWaiters,
	// TenantWeights, TenantRate, and TenantBurst.
	QueueDepth int
	// MaxWaiters bounds each tenant's waiter queue (default 64): arrivals
	// beyond it are shed immediately with 503 + Retry-After instead of
	// deepening a backlog that cannot drain in time.
	MaxWaiters int
	// TenantWeights sets per-tenant weighted-fair shares (X-Tenant header
	// values; unlisted tenants get weight 1). A weight-2 tenant receives
	// twice the evaluation slots of a weight-1 tenant under contention.
	TenantWeights map[string]float64
	// TenantRate, when positive, enables a token bucket per tenant: each
	// admission costs one token, refilled at this rate per second up to
	// TenantBurst (default max(1, TenantRate)). Empty buckets shed with
	// 503 + a computed Retry-After. Zero disables rate shedding.
	TenantRate  float64
	TenantBurst float64
	// Timeout is the per-request evaluation budget, covering both the queue
	// wait and the evaluation itself (default 30s). A request may declare a
	// shorter budget via the X-Deadline-Ms header; evaluations are never
	// started past the effective deadline.
	Timeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Logger receives one structured record per request; nil discards.
	Logger *slog.Logger
	// Peers lists the base URLs of sibling replicas this server may fetch
	// cache fills from over the internal /peer/v1/fill API. Outbound fills
	// only ever target a listed peer (the X-Peer-Owner request header is
	// checked against this allowlist, so clients cannot steer the server at
	// arbitrary origins); empty disables outbound fills. The inbound fill
	// endpoint is always mounted — it only serves already-rendered cached
	// bytes by content address.
	Peers []string
}

const (
	// retryAfterHint is the Retry-After value stamped on queue-full and
	// queue-timeout sheds, where no better estimate exists. Rate-limit
	// sheds compute their hint from the bucket refill horizon.
	retryAfterHint = time.Second
	// defaultCurveSamples is the /v1/model envelope resolution of a request
	// that names none.
	defaultCurveSamples = 64
	// peerTimeout bounds one outbound peer cache-fill fetch. A fill is an
	// optimization: on timeout or error the server just evaluates locally.
	peerTimeout = 2 * time.Second
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 512
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	if c.MaxWaiters <= 0 {
		c.MaxWaiters = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the analysis service. Create with New, mount via Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *cas.LRU[Response]
	rawKeys *cas.LRU[Key]
	plans   *plancache.Cache
	flight  *cas.Flight[Response]
	adm     *admission
	metrics *metrics

	// Precomputed error responses for the hot rejection paths, rendered
	// once at construction; figureNames is the figure catalog resolved
	// once.
	errQueueFull    *httpError
	errQueueTimeout *httpError
	errDeadline     *httpError
	errTooLarge     *httpError
	figureNames     []string

	// peerAllowed is the outbound cache-fill allowlist resolved from
	// Config.Peers; peerClient the client those fills go out on.
	peerAllowed map[string]bool
	peerClient  *http.Client

	// evalDelay is a test hook: it stretches every evaluation so tests can
	// provoke request pile-ups deterministically. Zero in production.
	evalDelay time.Duration
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		cache: cas.NewLRU[Response](cfg.CacheEntries, cfg.Shards),
		// The raw memo holds 32-byte pointers into the response cache;
		// several formattings of one spec may share a canonical entry, so
		// it runs larger than the cache it fronts.
		rawKeys: cas.NewLRU[Key](4*cfg.CacheEntries, cfg.Shards),
		flight:  cas.NewFlight[Response](cfg.Shards),
		adm:     newAdmission(cfg),
		metrics: newMetrics("healthz", "metrics", "model", "sweep", "sweep_stream", "figures", "peer"),
	}
	// The plan cache sits below admission and the response cache: it is only
	// consulted inside evaluations, so hits still pay admission (they are
	// real evaluations, just cheaper) and never bypass tenant fairness.
	if cfg.PlanCacheEntries > 0 {
		s.plans = plancache.New(cfg.PlanCacheEntries, cfg.Shards)
	}
	s.figureNames = figures.Names()
	if len(cfg.Peers) > 0 {
		s.peerAllowed = make(map[string]bool, len(cfg.Peers))
		for _, p := range cfg.Peers {
			s.peerAllowed[strings.TrimSuffix(p, "/")] = true
		}
		s.peerClient = &http.Client{Timeout: peerTimeout}
	}
	// The queue-full body names overload, not the timeout: a shed request
	// never waited out the budget, it was rejected on arrival because the
	// tenant's backlog was already hopeless. The timeout belongs only in
	// the queue-timeout body, where it really is the cause.
	s.errQueueFull = retryableError(http.StatusServiceUnavailable,
		"evaluation queue full, request shed", retryAfterHint)
	s.errQueueTimeout = retryableError(http.StatusServiceUnavailable,
		fmt.Sprintf("no evaluation slot became available within %v", cfg.Timeout), retryAfterHint)
	s.errDeadline = precomputedError(http.StatusGatewayTimeout,
		"deadline expired before evaluation started")
	s.errTooLarge = precomputedError(http.StatusRequestEntityTooLarge,
		fmt.Sprintf("request body exceeds %d bytes", cfg.MaxBodyBytes))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("POST /v1/model", s.instrument("model", s.handleModel))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	s.mux.HandleFunc("POST /v1/sweep/stream", s.instrument("sweep_stream", s.handleSweepStream))
	s.mux.HandleFunc("GET /v1/figures/{name}", s.instrument("figures", s.handleFigure))
	s.mux.HandleFunc("GET "+PeerFillPath+"{key}", s.instrument("peer", s.handlePeerFill))
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Evaluations reports how many cold evaluations have run — the number the
// coalescing tests pin to exactly one under 64-way identical load.
func (s *Server) Evaluations() uint64 { return s.metrics.evaluations.Load() }

// MetricsSnapshot returns the current counters (the /metrics payload).
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.metrics.snapshot(s.cache.Len())
	if s.plans != nil {
		st := s.plans.Stats()
		snap.PlanCacheEntries = st.Entries
		snap.PlanCacheHits = st.Hits
		snap.PlanCacheMisses = st.Misses
		snap.PlanCacheEvictions = st.Evictions
	}
	return snap
}

// PlanCacheStats reports the second-level plan cache counters; enabled is
// false (with zero stats) when the cache is disabled.
func (s *Server) PlanCacheStats() (stats plancache.Stats, enabled bool) {
	return s.plans.Stats(), s.plans != nil
}

// FlushCache empties the result cache and the raw-request memo, forcing the
// next request of each shape down the cold path (benchmarks and
// cache-bypass testing). The plan cache is deliberately left warm: it holds
// construction artifacts, not rendered responses, and the differential
// tests use exactly this split — flush responses, re-request, and prove the
// plan-cache-served evaluation re-renders the same bytes.
func (s *Server) FlushCache() {
	s.cache.Flush()
	s.rawKeys.Flush()
}

// CacheGeometry reports the effective response-cache layout after shard
// normalization: total entry capacity and independently locked shard count.
// The raw-request memo and the singleflight table use the same shard count.
func (s *Server) CacheGeometry() (entries, shards int) {
	return s.cache.Capacity(), s.cache.Shards()
}

// httpError carries a status code through the evaluation path; body, when
// non-nil, is the prerendered problem document, and retryAfter, when
// positive, becomes a Retry-After header so shed clients know when to come
// back.
type httpError struct {
	status     int
	msg        string
	body       []byte
	retryAfter time.Duration
}

// Error implements error.
func (e *httpError) Error() string { return e.msg }

// badRequest wraps a client error as 400.
func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// problemBody renders the JSON problem document for an error response.
func problemBody(status int, msg string) []byte {
	body, _ := json.Marshal(map[string]any{"error": msg, "status": status})
	return append(body, '\n')
}

// precomputedError builds an httpError whose response body is rendered once
// up front, so hot rejection paths (queue full, body too large) write
// static bytes.
func precomputedError(status int, msg string) *httpError {
	return &httpError{status: status, msg: msg, body: problemBody(status, msg)}
}

// retryableError is precomputedError plus a Retry-After hint.
func retryableError(status int, msg string, retryAfter time.Duration) *httpError {
	e := precomputedError(status, msg)
	e.retryAfter = retryAfter
	return e
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounded up so the client never retries early; the minimum is 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// statusClientClosedRequest is the nginx-convention status for a client
// that hung up before the response was ready. It never reaches the wire
// (the connection is gone) but keeps the metrics honest: a cancelled
// waiter is not a client error and not a server fault.
const statusClientClosedRequest = 499

// statusOf maps an evaluation error to its HTTP status. Everything the
// evaluators reject is a property of the submitted spec, so unrecognized
// errors default to 400 rather than 500 — the server's own invariants are
// covered by the explicit cases.
func statusOf(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return statusClientClosedRequest
	}
	return http.StatusBadRequest
}

// statusRecorder captures the status code written by a handler. Recorders
// are pooled: instrument resets and recycles them per request.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

// recorderPool recycles statusRecorders across requests.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// WriteHeader records the status.
func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Write counts body bytes (and implies 200 when WriteHeader was skipped).
func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Flush forwards to the underlying writer when it supports mid-response
// flushing, so streaming handlers (and the gate proxying through this
// layer) can push partial bodies to the client; wrapping a non-flushing
// writer makes Flush a no-op rather than a panic.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom forwards to the underlying io.ReaderFrom when present (net/http's
// response writer uses it for sendfile/copy optimizations), counting the
// copied bytes like Write; a plain writer falls back to io.Copy.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	var (
		n   int64
		err error
	)
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(src)
	} else {
		n, err = io.Copy(r.ResponseWriter, src)
	}
	r.bytes += int(n)
	return n, err
}

// instrument wraps a handler with metrics and structured request logging.
// The route's stats are resolved once here, at registration: the per-request
// observe path is pure atomics on that pointer.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	st := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status, rec.bytes = w, http.StatusOK, 0
		start := time.Now()
		// Cleanup runs deferred so a panicking handler still returns the
		// recorder (and its ResponseWriter reference) to the pool and still
		// observes the request — as the 500 the server's recovery will turn
		// it into. The panic itself propagates past this frame untouched.
		panicked := true
		defer func() {
			if panicked {
				rec.status = http.StatusInternalServerError
			}
			dur := time.Since(start)
			st.observe(rec.status, dur)
			// Building the log record costs more than a cache hit; skip it
			// entirely when the handler is disabled (the slog.DiscardHandler
			// default).
			if s.cfg.Logger.Enabled(r.Context(), slog.LevelInfo) {
				s.cfg.Logger.Info("request",
					"endpoint", name,
					"method", r.Method,
					"path", r.URL.Path,
					"status", rec.status,
					"dur_ms", float64(dur)/float64(time.Millisecond),
					"bytes", rec.bytes,
					"cache", rec.Header().Get("X-Cache"),
				)
			}
			rec.ResponseWriter = nil
			recorderPool.Put(rec)
		}()
		h(rec, r)
		panicked = false
	}
}

// healthzBody is the static liveness payload.
var healthzBody = []byte("{\"status\":\"ok\"}\n")

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(healthzBody)
}

// handleMetrics renders the counter snapshot as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	data, err := json.MarshalIndent(s.MetricsSnapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// bodyScratch is the pooled per-request read state: the accumulation buffer
// and the limit reader that caps it.
type bodyScratch struct {
	buf bytes.Buffer
	lr  io.LimitedReader
}

// bodyPool recycles request-body buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new(bodyScratch) }}

// putBody returns a scratch to the pool (nil is a no-op, so callers can
// defer it unconditionally).
func putBody(sc *bodyScratch) {
	if sc == nil {
		return
	}
	sc.lr.R = nil
	bodyPool.Put(sc)
}

// readBody drains a capped request body into a pooled buffer. On success
// the returned bytes alias the scratch, which the caller must release with
// putBody once the bytes are dead; on error the scratch is already
// released.
func (s *Server) readBody(r *http.Request) ([]byte, *bodyScratch, error) {
	sc := bodyPool.Get().(*bodyScratch)
	sc.buf.Reset()
	sc.lr.R = r.Body
	sc.lr.N = s.cfg.MaxBodyBytes + 1
	if _, err := sc.buf.ReadFrom(&sc.lr); err != nil {
		putBody(sc)
		return nil, nil, badRequest("read body: %v", err)
	}
	if int64(sc.buf.Len()) > s.cfg.MaxBodyBytes {
		putBody(sc)
		return nil, nil, s.errTooLarge
	}
	return sc.buf.Bytes(), sc, nil
}

// Precomputed X-Cache header values, one per disposition.
var (
	xcacheHit       = []string{"hit"}
	xcacheCold      = []string{"cold"}
	xcacheCoalesced = []string{"coalesced"}
	xcachePeer      = []string{"peer"}
)

// xcacheVals maps a disposition to its shared header value slice.
func xcacheVals(disposition string) []string {
	switch disposition {
	case "hit":
		return xcacheHit
	case "cold":
		return xcacheCold
	case "coalesced":
		return xcacheCoalesced
	case "peer":
		return xcachePeer
	}
	return []string{disposition}
}

// respond writes a rendered response, honouring If-None-Match, and stamps
// the cache disposition ("cold", "hit", or "coalesced") for observability
// and the e2e tests. Fixed headers are assigned under their canonical
// textproto keys from the response's precomputed value slices, so a cache
// hit writes zero serve-layer allocations; responses that never passed
// through evaluate (direct construction in tests) fall back to Set.
func respond(w http.ResponseWriter, r *http.Request, resp Response, disposition string) {
	h := w.Header()
	h["X-Cache"] = xcacheVals(disposition)
	if resp.ETag != "" {
		if resp.etagVals != nil {
			h["Etag"] = resp.etagVals
		} else {
			h.Set("ETag", resp.ETag)
		}
		if match := r.Header.Get("If-None-Match"); match != "" && ETagMatch(match, resp.ETag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if resp.ctVals != nil {
		h["Content-Type"] = resp.ctVals
		h["Content-Length"] = resp.clenVals
	} else {
		h.Set("Content-Type", resp.ContentType)
		h.Set("Content-Length", strconv.Itoa(len(resp.Body)))
	}
	w.Write(resp.Body)
}

// fail writes an error as a JSON problem document, reusing the prerendered
// body when the error carries one and stamping Retry-After when the error
// names a backoff.
func fail(w http.ResponseWriter, err error) {
	status := statusOf(err)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	var he *httpError
	hasHE := errors.As(err, &he)
	if hasHE && he.retryAfter > 0 {
		h.Set("Retry-After", retryAfterSeconds(he.retryAfter))
	}
	w.WriteHeader(status)
	if hasHE && he.body != nil {
		w.Write(he.body)
		return
	}
	w.Write(problemBody(status, err.Error()))
}

// rawHit is the fast half of the hot path: if this exact request body has
// been seen before (raw memo) and its canonical response is still cached,
// it returns that response without parsing a byte of JSON, counting the
// hit.
func (s *Server) rawHit(rawKey Key) (Response, bool) {
	key, ok := s.rawKeys.Get(rawKey)
	if !ok {
		return Response{}, false
	}
	resp, ok := s.cache.Get(key)
	if ok {
		s.metrics.cacheHits.Add(1)
	}
	return resp, ok
}

// serveCached is the shared hot path: look up the content address, coalesce
// concurrent misses onto one evaluation, and fill the cache. compute runs
// under the bounded queue with the per-request timeout already applied.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key Key, compute func(ctx context.Context) (Response, error)) {
	if resp, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		respond(w, r, resp, "hit")
		return
	}
	disposition := "cold"
	resp, err, role := s.flight.Do(r.Context(), key, func() (Response, error) {
		// Re-check under the flight: a request that lost the race between
		// its cache miss and its flight entry finds the winner's result.
		if resp, ok := s.cache.Get(key); ok {
			s.metrics.cacheHits.Add(1)
			return resp, nil
		}
		// A rerouted cluster request names the key's owner replica: ask it
		// for the rendered bytes before paying for a local evaluation.
		if resp, ok := s.peerFill(r, key); ok {
			disposition = "peer"
			return resp, nil
		}
		s.metrics.cacheMisses.Add(1)
		// Detached from any one client: N coalesced requests share the
		// work, so the first client hanging up must not cancel the result
		// the other N-1 are waiting for.
		resp, err := s.evaluate(context.Background(), r, compute)
		if err != nil {
			return Response{}, err
		}
		s.cache.Put(key, resp)
		return resp, nil
	})
	if role == cas.Waiter {
		s.metrics.coalesced.Add(1)
		disposition = "coalesced"
	}
	if err != nil {
		fail(w, err)
		return
	}
	respond(w, r, resp, disposition)
}

// admit acquires an evaluation slot for the tenant under ctx, translating
// rejections into their problem documents and metrics. On success the
// caller owns the returned release; a grant that arrives past the deadline
// is handed straight back — an evaluation is never started once its
// deadline has expired.
func (s *Server) admit(ctx context.Context, tenant string) (func(), error) {
	release, aerr := s.adm.acquire(ctx, tenant)
	if aerr != nil {
		switch aerr.kind {
		case admitQueueFull:
			s.metrics.queueSheds.Add(1)
			return nil, s.errQueueFull
		case admitRateLimited:
			s.metrics.rateSheds.Add(1)
			retry := aerr.retryAfter
			if retry <= 0 {
				retry = retryAfterHint
			}
			msg := fmt.Sprintf("tenant %q over admission rate, request shed", tenant)
			return nil, &httpError{
				status:     http.StatusServiceUnavailable,
				msg:        msg,
				body:       problemBody(http.StatusServiceUnavailable, msg),
				retryAfter: retry,
			}
		default: // admitTimeout
			s.metrics.queueTimeouts.Add(1)
			return nil, s.errQueueTimeout
		}
	}
	if ctx.Err() != nil {
		release()
		s.metrics.deadlineSkips.Add(1)
		return nil, s.errDeadline
	}
	return release, nil
}

// evaluate runs compute under the weighted-fair admission scheduler and the
// effective deadline — the smaller of the server Timeout and the request's
// declared X-Deadline-Ms budget — on a context derived from parent. It is
// the one evaluation step of every endpoint, buffered or streamed: it
// counts the evaluation and any deadline it runs out of, and stamps the
// response's ETag and prerendered headers.
func (s *Server) evaluate(parent context.Context, r *http.Request, compute func(ctx context.Context) (Response, error)) (Response, error) {
	budget := s.cfg.Timeout
	if d := requestBudget(r.Header); d > 0 && d < budget {
		budget = d
	}
	ctx, cancel := context.WithTimeout(parent, budget)
	defer cancel()
	release, err := s.admit(ctx, tenantOf(r.Header))
	if err != nil {
		return Response{}, err
	}
	defer release()
	s.metrics.evaluations.Add(1)
	if s.evalDelay > 0 {
		time.Sleep(s.evalDelay)
	}
	resp, err := compute(ctx)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.evalTimeouts.Add(1)
		}
		return Response{}, err
	}
	resp.ETag = etagOf(resp.Body)
	resp.stampHeaders()
	return resp, nil
}

// etagOf derives the strong validator from the body's content address.
func etagOf(body []byte) string {
	k := ContentKey("body", body)
	return fmt.Sprintf("%q", "sha256-"+hex.EncodeToString(k[:]))
}

// ModelRequest is the /v1/model body: either a built-in case study by name
// ("example" or any workloads registry entry), or an inline workflow to
// build against a named machine.
type ModelRequest struct {
	// Case selects a built-in case study, or "example" for the Fig 1 model.
	Case string `json:"case,omitempty"`
	// Machine names the system for inline workflows: any built-in machine
	// name (see machine.Names(); "" defaults to perlmutter).
	Machine string `json:"machine,omitempty"`
	// Workflow is an inline workflow spec (see internal/workflow JSON).
	Workflow json.RawMessage `json:"workflow,omitempty"`
	// ExternalBW overrides the machine's external staging bandwidth,
	// e.g. "5 GB/s".
	ExternalBW string `json:"external_bw,omitempty"`
	// CurveSamples overrides the bound-envelope resolution.
	CurveSamples int `json:"curve_samples,omitempty"`
	// Failure optionally adds a failure-aware analysis: the analytic
	// expected-attempts / work-factor / effective-TPS block computed from the
	// model's bound at the wall. Part of the canonical bytes, so requests
	// differing only in failure parameters get distinct cache entries.
	Failure *failure.Spec `json:"failure,omitempty"`
}

// canonicalModelRequest strictly parses and canonicalizes a model request.
func canonicalModelRequest(data []byte) (*ModelRequest, []byte, error) {
	var req ModelRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, badRequest("parse model request: %v", err)
	}
	if req.Case == "" && len(req.Workflow) == 0 {
		return nil, nil, badRequest("model request needs a case name or an inline workflow")
	}
	if req.Case != "" && len(req.Workflow) != 0 {
		return nil, nil, badRequest("model request takes a case or a workflow, not both")
	}
	// Canonical form: compact the raw workflow JSON so formatting-only
	// variants of the same request share a content address.
	if len(req.Workflow) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, req.Workflow); err != nil {
			return nil, nil, badRequest("compact workflow: %v", err)
		}
		req.Workflow = buf.Bytes()
	}
	canonical, err := json.Marshal(&req)
	if err != nil {
		return nil, nil, badRequest("canonicalize model request: %v", err)
	}
	return &req, canonical, nil
}

// handleModel serves bounds + classification + advice.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	body, sc, err := s.readBody(r)
	if err != nil {
		fail(w, err)
		return
	}
	defer putBody(sc)
	rawKey := ContentKey("raw-model", body)
	if resp, ok := s.rawHit(rawKey); ok {
		respond(w, r, resp, "hit")
		return
	}
	req, canonical, err := canonicalModelRequest(body)
	if err != nil {
		fail(w, err)
		return
	}
	key := ContentKey("model", canonical)
	s.rawKeys.Put(rawKey, key)
	s.serveCached(w, r, key, func(ctx context.Context) (Response, error) {
		return s.evaluateModel(req)
	})
}

// evaluateModel builds and analyzes the requested model.
func (s *Server) evaluateModel(req *ModelRequest) (Response, error) {
	var (
		model  *core.Model
		points []core.Point
	)
	switch {
	case req.Case == "example":
		m, err := workloads.ExampleModel()
		if err != nil {
			return Response{}, err
		}
		model = m
	case req.Case != "":
		cs, err := workloads.ByName(req.Case)
		if err != nil {
			return Response{}, badRequest("%v", err)
		}
		model, points = cs.Model, cs.Points
	default:
		built, err := s.buildInlineModel(req)
		if err != nil {
			return Response{}, err
		}
		model = built
	}
	samples := req.CurveSamples
	if samples <= 0 {
		samples = defaultCurveSamples
	}
	analysis, err := model.Analyze(points, samples)
	if err != nil {
		return Response{}, badRequest("%v", err)
	}
	// Requests without a failure block marshal the bare analysis, keeping
	// their response bytes identical to the pre-failure contract.
	var payload any = analysis
	if req.Failure != nil {
		fm, err := req.Failure.Compile()
		if err != nil {
			return Response{}, badRequest("failure: %v", err)
		}
		fa := fm.Analyze(analysis.BoundAtWallTPS)
		payload = &modelAnalysis{Analysis: analysis, Failure: &fa}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return Response{}, err
	}
	return Response{Body: append(data, '\n'), ContentType: "application/json"}, nil
}

// buildInlineModel resolves an inline-workflow model request, consulting the
// plan cache for an already-built core.Model before parsing and building.
// The key is (resolved machine name, canonical external override, compacted
// workflow JSON) — everything Build reads — and model analysis is read-only,
// so one built model serves any curve_samples, operating-point, or failure
// variation over the same workflow. Only valid combinations ever get cached
// (a build error is never stored), so a hit skips the workflow unmarshal
// and the build outright and implies both would have succeeded.
func (s *Server) buildInlineModel(req *ModelRequest) (*core.Model, error) {
	m, err := machine.ByName(req.Machine)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	opts := core.BuildOptions{}
	extKey := ""
	if req.ExternalBW != "" {
		bw, err := units.ParseByteRate(req.ExternalBW)
		if err != nil {
			return nil, badRequest("external_bw: %v", err)
		}
		opts.ExternalBW = bw
		// Key on the parsed rate, not the spelling, so "5 GB/s" and "5GB/s"
		// share an entry.
		extKey = strconv.FormatFloat(float64(bw), 'g', -1, 64)
	}
	var key plancache.Key
	if s.plans != nil {
		key = plancache.ModelKey(m.Name, extKey, req.Workflow)
		if v, ok := s.plans.Get(key); ok {
			return v.(*core.Model), nil
		}
	}
	var wf workflow.Workflow
	if err := json.Unmarshal(req.Workflow, &wf); err != nil {
		return nil, badRequest("parse workflow: %v", err)
	}
	built, err := core.Build(m, &wf, opts)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	s.plans.Put(key, built)
	return built, nil
}

// modelAnalysis is the /v1/model response when the request carries a failure
// block: the standard analysis fields flattened in place, plus the analytic
// failure block.
type modelAnalysis struct {
	*core.Analysis
	Failure *failure.Analysis `json:"failure"`
}

// SweepResponse is the schema of the /v1/sweep body: the study's report
// tables in print order, in the canonical table JSON of internal/report.
// runSweep appends the body directly (see renderSweep); clients decode it
// with this type.
type SweepResponse struct {
	Kind   string          `json:"kind"`
	Tables []*report.Table `json:"tables"`
}

// handleSweep runs a wfsweep spec. /v1/sweep returns its tables as one JSON
// body unless the request's Accept negotiates NDJSON or SSE; the streaming
// endpoint always streams. Both deliveries share the prelude (raw memo,
// parse, canonical key), the cache, the evaluation and the rendered bytes;
// only delivery differs: respond and serveCached buffer, streamCached and
// streamSweep stream.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.serveSweep(w, r, wantsStream(r))
}

// handleSweepStream serves /v1/sweep/stream: handleSweep, always streamed.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	s.serveSweep(w, r, true)
}

// serveSweep is the one sweep handler behind both endpoints.
func (s *Server) serveSweep(w http.ResponseWriter, r *http.Request, stream bool) {
	body, sc, err := s.readBody(r)
	if err != nil {
		fail(w, err)
		return
	}
	defer putBody(sc)
	rawKey := ContentKey("raw-sweep", body)
	if resp, ok := s.rawHit(rawKey); ok {
		if stream {
			s.streamCached(w, r, resp)
		} else {
			respond(w, r, resp, "hit")
		}
		return
	}
	spec, err := study.ParseSpec(body)
	if err != nil {
		fail(w, badRequest("%v", err))
		return
	}
	canonical, err := spec.Canonical()
	if err != nil {
		fail(w, badRequest("%v", err))
		return
	}
	key := ContentKey("sweep", canonical)
	s.rawKeys.Put(rawKey, key)
	// The server owns the parallelism budget; results are identical at any
	// worker count, so this never changes the bytes.
	spec.Workers = s.cfg.Workers
	if stream {
		s.streamSweep(w, r, key, spec)
		return
	}
	s.serveCached(w, r, key, func(ctx context.Context) (Response, error) {
		return s.runSweep(ctx, spec, nil)
	})
}

// runSweep runs the spec and renders its canonical response body, the
// study's tables as a SweepResponse. A non-nil emit receives progress
// snapshots while the ensemble runs (see study.RunStreamCached).
func (s *Server) runSweep(ctx context.Context, spec *study.Spec, emit func(study.Progress)) (Response, error) {
	tables, err := study.RunStreamCached(ctx, spec, s.plans, emit)
	if err != nil {
		return Response{}, err
	}
	return Response{Body: renderSweep(spec.Kind, tables), ContentType: "application/json"}, nil
}

// renderSweep appends a sweep's body, {"kind":...,"tables":[...]} and a
// newline, into one buffer allocated at exactly the body's length: the
// response cache keeps the body, so spare capacity would stay live with it.
// The bytes are those encoding/json writes for a SweepResponse. The kind is
// a study kind name, plain ASCII, so it encodes at its length plus quotes.
func renderSweep(kind string, tables []*report.Table) []byte {
	n := len(`{"kind":"","tables":[]}`+"\n") + len(kind)
	for i, t := range tables {
		if i > 0 {
			n++
		}
		n += t.JSONLen()
	}
	b := make([]byte, 0, n)
	b = append(b, `{"kind":`...)
	b = report.AppendString(b, kind)
	b = append(b, `,"tables":[`...)
	for i, t := range tables {
		if i > 0 {
			b = append(b, ',')
		}
		b = t.AppendJSON(b)
	}
	return append(b, ']', '}', '\n')
}

// handleFigure renders one paper figure as SVG. The catalog's name list is
// resolved once (figures.Names sorts a fresh slice per call).
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !slices.Contains(s.figureNames, name) {
		fail(w, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown figure %q (have %v)", name, s.figureNames)})
		return
	}
	s.serveCached(w, r, contentKey("figure", name), func(ctx context.Context) (Response, error) {
		fig, err := figures.Render(name)
		if err != nil {
			return Response{}, err
		}
		return Response{Body: []byte(fig.SVG), ContentType: plot.ContentTypeSVG}, nil
	})
}
