package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// planWallSpecs are the sweep specs the plan-cache differential wall runs,
// one per ensemble kind plus both corpus variation regimes; the seed slot
// makes each request a fresh response-cache key.
var planWallSpecs = []struct {
	name string
	spec string // fmt template with one %d seed slot
}{
	{"montecarlo", `{"kind":"montecarlo","case":"lcls-cori","trials":48,"seed":%d,"streams":2,` +
		`"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`},
	{"failures", `{"kind":"failures","case":"lcls-cori","trials":24,"seed":%d,` +
		`"failure":{"task_fail_prob":0.05,"restage_rate":"1 GB/s","retry":{"max_attempts":4,"backoff_seconds":1,"backoff_factor":2}}}`},
	{"corpus-cv0", `{"kind":"corpus","machine":"perlmutter-numa","count":20,"seed":%d,` +
		`"template":{"width":5,"depth":3,"payload":"512 MB"}}`},
	{"corpus-cv", `{"kind":"corpus","machine":"perlmutter-numa","count":20,"seed":%d,` +
		`"template":{"width":5,"depth":3,"cv":0.4,"payload":"512 MB"}}`},
}

// TestPlanCacheDifferentialWallSweep is the serve-level half of the
// differential wall for /v1/sweep and /v1/sweep/stream: for every ensemble
// kind, a plan-cache-disabled server and a plan-cache-enabled server must
// return byte-identical bodies and ETags — cold, and again after the
// response cache is flushed so the enabled server re-evaluates from warm
// plan-cache entries. The streaming endpoint's final line must match the
// buffered body in both regimes.
func TestPlanCacheDifferentialWallSweep(t *testing.T) {
	sOff, tsOff := newTestServer(t, Config{PlanCacheEntries: -1})
	sOn, tsOn := newTestServer(t, Config{})
	for _, tc := range planWallSpecs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := 1; seed <= 3; seed++ {
				body := fmt.Sprintf(tc.spec, seed)
				stOff, bOff, hOff := post(t, tsOff.URL+"/v1/sweep", body)
				stOn, bOn, hOn := post(t, tsOn.URL+"/v1/sweep", body)
				if stOff != http.StatusOK || stOn != http.StatusOK {
					t.Fatalf("seed %d: status off=%d on=%d (%s)", seed, stOff, stOn, bOn)
				}
				if !bytes.Equal(bOff, bOn) {
					t.Fatalf("seed %d: cache-on body diverged from cache-off", seed)
				}
				if hOff.Get("ETag") != hOn.Get("ETag") {
					t.Fatalf("seed %d: ETag off=%q on=%q", seed, hOff.Get("ETag"), hOn.Get("ETag"))
				}

				// Flush the response caches: the re-request is a cold
				// evaluation again, but on the enabled server it now runs
				// entirely from warm plan-cache entries.
				sOff.FlushCache()
				sOn.FlushCache()
				_, bOff2, hOff2 := post(t, tsOff.URL+"/v1/sweep", body)
				_, bOn2, hOn2 := post(t, tsOn.URL+"/v1/sweep", body)
				if hOn2.Get("X-Cache") != "cold" {
					t.Fatalf("seed %d: post-flush X-Cache = %q, want cold", seed, hOn2.Get("X-Cache"))
				}
				if !bytes.Equal(bOff2, bOn2) || !bytes.Equal(bOff, bOn2) {
					t.Fatalf("seed %d: warm-plan re-evaluation diverged", seed)
				}
				if hOff2.Get("ETag") != hOn2.Get("ETag") || hOn.Get("ETag") != hOn2.Get("ETag") {
					t.Fatalf("seed %d: warm-plan ETag diverged", seed)
				}

				// Streaming: flush again so the stream re-evaluates (warm
				// plans on the enabled server); its final line must be the
				// buffered body on both servers.
				sOff.FlushCache()
				sOn.FlushCache()
				want := strings.TrimSuffix(string(bOff), "\n")
				for _, ep := range []struct {
					name string
					ts   string
				}{{"off", tsOff.URL}, {"on", tsOn.URL}} {
					resp, lines := streamLines(t, ep.ts+"/v1/sweep/stream", body, ContentTypeNDJSON)
					if resp.StatusCode != http.StatusOK || len(lines) == 0 {
						t.Fatalf("seed %d: stream %s status=%d lines=%d", seed, ep.name, resp.StatusCode, len(lines))
					}
					if got := lines[len(lines)-1]; got != want {
						t.Fatalf("seed %d: stream %s final line diverged from buffered body", seed, ep.name)
					}
				}
			}
		})
	}
	// A disabled plan cache counts nothing; an enabled one both misses and
	// hits over these requests.
	if off := sOff.MetricsSnapshot(); off.PlanCacheHits != 0 || off.PlanCacheMisses != 0 || off.PlanCacheEntries != 0 {
		t.Fatalf("PlanCacheEntries -1 did not disable the plan cache: %+v", off)
	}
	if on := sOn.MetricsSnapshot(); on.PlanCacheHits == 0 || on.PlanCacheMisses == 0 {
		t.Fatalf("enabled server recorded no plan-cache hits or misses: %+v", on)
	}
}

// TestPlanCacheDifferentialWallModel is the /v1/model half: inline-workflow
// requests varying only curve_samples (distinct response-cache keys, one
// shared built model) must match a plan-cache-disabled server byte for byte,
// ETags included.
func TestPlanCacheDifferentialWallModel(t *testing.T) {
	_, tsOff := newTestServer(t, Config{PlanCacheEntries: -1})
	sOn, tsOn := newTestServer(t, Config{})
	wf := `{"machine":"perlmutter-numa","external_bw":"5 GB/s","workflow":{"name":"w","partition":"cpu",` +
		`"tasks":[{"id":"a","nodes":2,"work":{"flops":2e12,"mem_bytes":5e10}},` +
		`{"id":"b","nodes":1,"work":{"fs_bytes":5e9}}],"deps":[["a","b"]]},"curve_samples":%d}`
	for _, samples := range []int{32, 64, 128} {
		body := fmt.Sprintf(wf, samples)
		stOff, bOff, hOff := post(t, tsOff.URL+"/v1/model", body)
		stOn, bOn, hOn := post(t, tsOn.URL+"/v1/model", body)
		if stOff != http.StatusOK || stOn != http.StatusOK {
			t.Fatalf("samples %d: status off=%d on=%d (%s)", samples, stOff, stOn, bOn)
		}
		if !bytes.Equal(bOff, bOn) {
			t.Fatalf("samples %d: cache-on model body diverged", samples)
		}
		if hOff.Get("ETag") != hOn.Get("ETag") {
			t.Fatalf("samples %d: ETag off=%q on=%q", samples, hOff.Get("ETag"), hOn.Get("ETag"))
		}
	}
	if st := sOn.MetricsSnapshot(); st.PlanCacheHits < 2 {
		t.Fatalf("model requests shared no built model: %+v", st)
	}

	// The external override is keyed on its parsed value: a respelled rate
	// is a different response-cache entry but the same model, and the body
	// must still match the canonical spelling's.
	base := fmt.Sprintf(wf, 64)
	respelled := strings.Replace(base, `"5 GB/s"`, `"5GB/s"`, 1)
	_, bBase, _ := post(t, tsOn.URL+"/v1/model", base)
	hitsBefore := sOn.MetricsSnapshot().PlanCacheHits
	_, bResp, _ := post(t, tsOn.URL+"/v1/model", respelled)
	hitsAfter := sOn.MetricsSnapshot().PlanCacheHits
	if !bytes.Equal(bBase, bResp) {
		t.Fatal("respelled external_bw changed the model body")
	}
	if hitsAfter <= hitsBefore {
		t.Fatalf("respelled external_bw did not share the built model: %d -> %d hits", hitsBefore, hitsAfter)
	}
}

// TestPlanCacheCapacityOnServer pins the wfserved flag contract at the
// Config level: a tiny plan cache still serves correct results, it just
// evicts.
func TestPlanCacheCapacityOnServer(t *testing.T) {
	s, ts := newTestServer(t, Config{PlanCacheEntries: 2})
	for seed := 1; seed <= 4; seed++ {
		spec := fmt.Sprintf(`{"kind":"corpus","machine":"perlmutter-numa","count":10,"seed":%d,`+
			`"template":{"width":4,"depth":3,"cv":0.4,"payload":"256 MB"}}`, seed)
		if st, body, _ := post(t, ts.URL+"/v1/sweep", spec); st != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, st, body)
		}
	}
	st := s.MetricsSnapshot()
	if st.PlanCacheEvictions == 0 {
		t.Fatalf("tiny plan cache recorded no evictions: %+v", st)
	}
	if st.PlanCacheEntries > 2 {
		t.Fatalf("plan cache over its 2-entry capacity: %+v", st)
	}
}
