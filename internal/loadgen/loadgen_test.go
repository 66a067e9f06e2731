package loadgen

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"wroofline/internal/serve"
)

// TestBucketRoundTrip checks that every microsecond value lands in a bucket
// whose bounds contain it, within the ~12% log-bucket resolution.
func TestBucketRoundTrip(t *testing.T) {
	prop := func(us uint64) bool {
		us %= 1 << 40 // cap at ~12 days; beyond that the top bucket clamps
		i := bucketIndex(us)
		upper := bucketUpperUS(i)
		if us > upper {
			return false
		}
		if i > 0 && bucketUpperUS(i-1) >= us {
			return false // value also fits the previous bucket: bounds overlap
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// Buckets are exact below histSubCount.
	for us := uint64(0); us < histSubCount; us++ {
		if got := bucketUpperUS(bucketIndex(us)); got != us {
			t.Errorf("bucket for %dµs has upper %dµs, want exact", us, got)
		}
	}
}

// TestHistQuantiles records a known two-mode distribution and checks the
// quantile estimates land in the right modes, orders hold, and max is
// exact.
func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 0; i < 90; i++ {
		h.record(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.record(50 * time.Millisecond)
	}
	p50, p95, p99 := h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not ordered: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50 < 900*time.Microsecond || p50 > 1200*time.Microsecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p99 < 45*time.Millisecond || p99 > 50*time.Millisecond {
		t.Errorf("p99 = %v, want ~50ms (clamped to max)", p99)
	}
	if got := h.maxLatency(); got != 50*time.Millisecond {
		t.Errorf("max = %v, want exactly 50ms", got)
	}
}

// TestHistConcurrentRecord hammers one histogram from many goroutines;
// under -race this is the lock-free proof, and the mass must balance.
func TestHistConcurrentRecord(t *testing.T) {
	var h hist
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.record(time.Duration(1+i%1000) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.count.Load(); got != goroutines*perG {
		t.Errorf("count = %d, want %d", got, goroutines*perG)
	}
	var mass uint64
	for i := range h.buckets {
		mass += h.buckets[i].Load()
	}
	if mass != goroutines*perG {
		t.Errorf("bucket mass = %d, want %d", mass, goroutines*perG)
	}
}

// TestMixScenarios checks the built-in mixes produce well-formed requests
// and that the miss-heavy and corpus mixes actually vary bodies with the
// sequence.
func TestMixScenarios(t *testing.T) {
	for _, name := range []string{"hit-heavy", "miss-heavy", "corpus", "stream", "seed-vary", "eval-heavy", "eval-light"} {
		m, err := MixByName(name)
		if err != nil {
			t.Fatalf("MixByName(%q): %v", name, err)
		}
		for _, sh := range m.shapes {
			if sh.weight <= 0 || sh.endpoint == "" || sh.method == "" || !strings.HasPrefix(sh.path, "/v1/") {
				t.Errorf("%s: malformed shape %+v", name, sh)
			}
			if sh.method == "POST" && sh.body == nil {
				t.Errorf("%s: POST shape %s has no body", name, sh.path)
			}
		}
	}
	if _, err := MixByName("nope"); err == nil {
		t.Error("MixByName(nope) did not fail")
	}

	miss, _ := MixByName("miss-heavy")
	varying := 0
	for _, sh := range miss.shapes {
		if sh.body != nil && sh.body(1) != sh.body(2) {
			varying++
		}
	}
	if varying < 2 {
		t.Errorf("miss-heavy has %d sequence-varying shapes, want >= 2", varying)
	}

	corpus, _ := MixByName("corpus")
	varying = 0
	for _, sh := range corpus.shapes {
		if sh.body != nil && sh.body(1) != sh.body(2) {
			varying++
		}
	}
	if varying < 1 {
		t.Error("corpus mix has no sequence-varying shapes")
	}

	// Every seed-vary shape varies per request: the mix's contract is 0%
	// response-cache hits, so a fixed body anywhere would dilute the probe.
	seedVary, _ := MixByName("seed-vary")
	for _, sh := range seedVary.shapes {
		if sh.body == nil || sh.body(1) == sh.body(2) {
			t.Errorf("seed-vary shape %s does not vary per request", sh.path)
		}
	}
}

// TestSeedVaryMixPlanCache drives the seed-vary mix against an in-process
// server and checks the contract it advertises: response-cache hits stay at
// zero (every seed is a fresh content address) while the plan cache serves
// the construction work (CV==0 corpus scenarios and the fixed Monte Carlo
// case are seed-invariant below the response layer).
func TestSeedVaryMixPlanCache(t *testing.T) {
	s := serve.New(serve.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	mix, err := MixByName("seed-vary")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Options{
		BaseURL: srv.URL, Mix: mix, Workers: 2, Duration: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Requests == 0 {
		t.Fatal("seed-vary run issued no requests")
	}
	if res.Total.Errors != 0 {
		t.Fatalf("seed-vary run: %d errors", res.Total.Errors)
	}
	snap := s.MetricsSnapshot()
	if snap.Cache.Hits != 0 {
		t.Errorf("seed-vary run produced %d response-cache hits, want 0", snap.Cache.Hits)
	}
	if snap.PlanCacheHits == 0 {
		t.Errorf("seed-vary run produced no plan-cache hits: %+v", snap)
	}
}

// newTestServer starts an in-process wfserved handler over real HTTP.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestRunClosedLoop drives the hit-heavy mix closed-loop against an
// in-process server and checks the report: non-zero RPS, ordered
// percentiles, zero errors, and endpoint results that sum to the total.
func TestRunClosedLoop(t *testing.T) {
	srv := newTestServer(t)
	mix, _ := MixByName("hit-heavy")
	rep, err := Run(context.Background(), Options{
		BaseURL:  srv.URL,
		Mix:      mix,
		Duration: 400 * time.Millisecond,
		Workers:  4,
		Client:   srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" {
		t.Errorf("mode = %q, want closed", rep.Mode)
	}
	if rep.Total.Requests == 0 || rep.Total.RPS <= 0 {
		t.Fatalf("no throughput: %+v", rep.Total)
	}
	if rep.Total.Errors != 0 {
		t.Errorf("%d errors on hit-heavy mix", rep.Total.Errors)
	}
	if !(rep.Total.P50 <= rep.Total.P95 && rep.Total.P95 <= rep.Total.P99 && rep.Total.P99 <= rep.Total.Max) {
		t.Errorf("percentiles not ordered: %+v", rep.Total)
	}
	var sum uint64
	for _, res := range rep.Endpoints {
		sum += res.Requests
	}
	if sum != rep.Total.Requests {
		t.Errorf("endpoint requests sum to %d, total says %d", sum, rep.Total.Requests)
	}
}

// TestRunOpenLoop checks the fixed-RPS driver paces to roughly the target
// rate against a fast in-process server.
func TestRunOpenLoop(t *testing.T) {
	srv := newTestServer(t)
	mix, _ := MixByName("hit-heavy")
	rep, err := Run(context.Background(), Options{
		BaseURL:  srv.URL,
		Mix:      mix,
		Duration: 500 * time.Millisecond,
		Workers:  16,
		RPS:      200,
		Client:   srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Mode)
	}
	// ~100 requests scheduled; allow wide slack for CI jitter but require
	// the pacer neither stalled nor ran free.
	if rep.Total.Requests < 40 || rep.Total.Requests > 160 {
		t.Errorf("open loop at 200 RPS for 500ms completed %d requests, want ~100", rep.Total.Requests)
	}
}

// TestRunOptionValidation pins the error paths.
func TestRunOptionValidation(t *testing.T) {
	mix, _ := MixByName("hit-heavy")
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"nil mix", Options{BaseURL: "http://x", Duration: time.Second}},
		{"no url", Options{Mix: mix, Duration: time.Second}},
		{"no duration", Options{Mix: mix, BaseURL: "http://x"}},
	} {
		if _, err := Run(context.Background(), tc.opts); err == nil {
			t.Errorf("%s: Run did not fail", tc.name)
		}
	}
}

// TestReportWriteText smoke-checks the rendered table.
func TestReportWriteText(t *testing.T) {
	rep := &Report{
		Mode:    "closed",
		Elapsed: time.Second,
		Endpoints: map[string]*EndpointResult{
			"model": {Requests: 100, RPS: 100, P50: time.Millisecond, P95: 2 * time.Millisecond,
				P99: 3 * time.Millisecond, Max: 4 * time.Millisecond},
		},
		Total: &EndpointResult{Requests: 100, RPS: 100, P50: time.Millisecond,
			P95: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: 4 * time.Millisecond},
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"mode=closed", "endpoint", "model", "total", "p99", "100.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
