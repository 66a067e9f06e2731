// Parallel serving benchmarks: the wfserved hot path under concurrent
// load. BenchmarkServe_HitParallel hammers a single cached /v1/model entry
// from every proc; BenchmarkServe_MixedParallel spreads a hit-heavy
// model/figure/sweep mix across many cache keys (and therefore shards).
// Run with -cpu 1,4,8 to see how throughput scales with procs:
//
//	go test . -run XXX -bench 'BenchmarkServe_(Hit|Mixed)Parallel' -benchmem -cpu 1,4,8
//
// The per-goroutine request machinery below (reusable body reader, discard
// response writer) is deliberately allocation-free so the measured ns/op
// and allocs/op belong to the serving path, not the harness.
package wroofline

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wroofline/internal/serve"
)

// discardResponseWriter is a reusable http.ResponseWriter that throws the
// body away: the e2e suite already asserts the bytes, the benchmark only
// wants the serving cost. It counts the NDJSON progress events of a
// streamed sweep, which the stream encoder sends one Write each.
type discardResponseWriter struct {
	h      http.Header
	code   int
	n      int
	frames int
}

var progressFrame = []byte(`{"event":"progress",`)

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, progressFrame) {
		w.frames++
	}
	w.n += len(p)
	return len(p), nil
}
func (w *discardResponseWriter) WriteHeader(code int) { w.code = code }

// reset readies the writer for the next request without reallocating.
func (w *discardResponseWriter) reset() {
	clear(w.h)
	w.code = 0
	w.n = 0
	w.frames = 0
}

// reusableBody is an io.ReadCloser over a strings.Reader that can be
// rewound between requests (io.NopCloser would allocate per iteration).
type reusableBody struct{ strings.Reader }

func (*reusableBody) Close() error { return nil }

// benchRequest is one pre-built request a benchmark goroutine replays.
type benchRequest struct {
	req  *http.Request
	body string
	rd   *reusableBody
}

// newBenchRequest builds a replayable request. For POSTs the body is
// rewound on every do; GETs carry none.
func newBenchRequest(method, path, body string) *benchRequest {
	br := &benchRequest{body: body}
	if body != "" {
		br.rd = &reusableBody{}
		br.rd.Reset(body)
		br.req = httptest.NewRequest(method, path, br.rd)
		br.req.Body = br.rd
	} else {
		br.req = httptest.NewRequest(method, path, nil)
	}
	return br
}

// do replays the request through the handler.
func (br *benchRequest) do(b *testing.B, h http.Handler, w *discardResponseWriter) {
	w.reset()
	if br.rd != nil {
		br.rd.Reset(br.body)
		br.req.ContentLength = int64(len(br.body))
	}
	h.ServeHTTP(w, br.req)
	if w.code != 0 && w.code != http.StatusOK {
		b.Fatalf("%s %s: status %d", br.req.Method, br.req.URL.Path, w.code)
	}
}

// prime evaluates a request once over real TCP-free plumbing so the cache
// holds its response before the timed loop starts.
func prime(b *testing.B, h http.Handler, method, path, body string) {
	b.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("prime %s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
}

// BenchmarkServe_HitParallel is the contention probe for the serving hot
// path: every proc hammers the same cached /v1/model entry, so the only
// shared state touched per request is the cache lookup, the singleflight
// table, and the metrics. Before PR 6 those were three process-global
// mutexes; the benchmark quantifies what sharded + atomic state buys.
func BenchmarkServe_HitParallel(b *testing.B) {
	s := serve.New(serve.Config{})
	h := s.Handler()
	const body = `{"case":"example"}`
	prime(b, h, "POST", "/v1/model", body)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &discardResponseWriter{h: make(http.Header, 8)}
		br := newBenchRequest("POST", "/v1/model", body)
		for pb.Next() {
			br.do(b, h, w)
		}
	})
}

// BenchmarkServe_MixedParallel replays a hit-heavy production-shaped mix —
// eight model bodies, a figure, and a small sweep, all cached — so
// concurrent requests land on distinct cache keys (and, after sharding,
// distinct shards).
func BenchmarkServe_MixedParallel(b *testing.B) {
	s := serve.New(serve.Config{})
	h := s.Handler()
	sweepSpec := `{"kind":"montecarlo","case":"lcls-cori","trials":16,"seed":7,` +
		`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`
	type shape struct{ method, path, body string }
	var shapes []shape
	for _, c := range []string{"example", "lcls-cori", "bgw-64"} {
		shapes = append(shapes, shape{"POST", "/v1/model", fmt.Sprintf(`{"case":%q}`, c)})
	}
	for samples := 16; samples <= 128; samples *= 2 {
		shapes = append(shapes, shape{"POST", "/v1/model",
			fmt.Sprintf(`{"case":"example","curve_samples":%d}`, samples)})
	}
	shapes = append(shapes,
		shape{"GET", "/v1/figures/example.svg", ""},
		shape{"POST", "/v1/sweep", sweepSpec},
	)
	for _, sh := range shapes {
		prime(b, h, sh.method, sh.path, sh.body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var goroutineSeq uint64
	_ = goroutineSeq
	b.RunParallel(func(pb *testing.PB) {
		w := &discardResponseWriter{h: make(http.Header, 8)}
		reqs := make([]*benchRequest, len(shapes))
		for i, sh := range shapes {
			reqs[i] = newBenchRequest(sh.method, sh.path, sh.body)
		}
		i := 0
		for pb.Next() {
			br := reqs[i%len(reqs)]
			i++
			br.do(b, h, w)
		}
	})
}
