package plancache

import (
	"testing"

	"wroofline/internal/wfgen"
)

func benchSpec() *wfgen.Spec {
	return &wfgen.Spec{Family: "diamond", Width: 5, Depth: 3, Payload: "512 MB"}
}

// BenchmarkPlanCache_HitParallel measures the steady-state hit path — the
// per-request overhead every plan-cache-enabled evaluation pays — under
// parallel load across a warm working set. Tracked in BENCH_9.json.
func BenchmarkPlanCache_HitParallel(b *testing.B) {
	c := New(512, 0)
	const working = 64
	keys := make([]Key, working)
	for i := range keys {
		keys[i] = key(i)
		c.Put(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%working]
			i++
			if _, ok := c.Get(k); !ok {
				b.Fatal("miss on warm key")
			}
		}
	})
}

// BenchmarkPlanCache_KeyScenario measures scenario-key construction (one
// per family of a CV 0 corpus request).
func BenchmarkPlanCache_KeyScenario(b *testing.B) {
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ScenarioKey(spec, "perlmutter-numa")
	}
}
