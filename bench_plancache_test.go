// Plan-cache benchmarks: the seed-vary workload that motivates the
// second-level cache. Every iteration POSTs a corpus sweep whose only
// varying field is the request seed — always a response-cache miss — with a
// CV==0 template, so the generated scenarios are seed-invariant below the
// response layer. With the plan cache on, evaluation reuses the cached
// scenario set; with it off, every request regenerates, rebuilds, and
// re-analyzes the corpus from scratch. The before/after pair is frozen in
// BENCH_9.json by `go run ./scripts/bench`:
//
//	go test . -run XXX -bench 'BenchmarkServe_SweepSeedVary' -benchmem
package wroofline

import (
	"fmt"
	"testing"

	"wroofline/internal/serve"
)

// seedVarySpec mirrors loadgen's seed-vary corpus shape: CV==0, so only the
// seed varies across requests and the plan cache can serve every scenario.
const seedVarySpec = `{"kind":"corpus","machine":"perlmutter-numa","count":30,"seed":%d,` +
	`"template":{"width":5,"depth":3,"payload":"512 MB"}}`

// runSeedVary drives one fresh-seeded sweep per iteration through the
// handler at path (buffered /v1/sweep or streamed /v1/sweep/stream) and
// returns the progress events a request streamed, on average. Seeds start
// high so the timed loop never collides with the priming request's
// response-cache entry.
func runSeedVary(b *testing.B, cfg serve.Config, path string) float64 {
	s := serve.New(cfg)
	h := s.Handler()
	prime(b, h, "POST", "/v1/sweep", fmt.Sprintf(seedVarySpec, 1))
	b.ReportAllocs()
	b.ResetTimer()
	frames := 0
	w := &discardResponseWriter{h: make(map[string][]string, 8)}
	for i := 0; i < b.N; i++ {
		br := newBenchRequest("POST", path, fmt.Sprintf(seedVarySpec, 1000+i))
		br.do(b, h, w)
		frames += w.frames
	}
	return float64(frames) / float64(b.N)
}

// BenchmarkServe_SweepSeedVaryCold measures the seed-vary workload with the
// plan cache at its default size: every request misses the response cache,
// but after the priming request every CV 0 corpus scenario is a plan-cache hit.
func BenchmarkServe_SweepSeedVaryCold(b *testing.B) {
	runSeedVary(b, serve.Config{}, "/v1/sweep")
}

// BenchmarkServe_SweepSeedVaryNoPlanCache is the baseline: identical
// workload with the plan cache disabled, so each request pays full scenario
// generation, model build, and analysis. The Cold/NoPlanCache ratio is the
// cache's win, gated at >= 3x in scripts/bench.
func BenchmarkServe_SweepSeedVaryNoPlanCache(b *testing.B) {
	runSeedVary(b, serve.Config{PlanCacheEntries: -1}, "/v1/sweep")
}

// BenchmarkServe_SweepCorpusStream is the scan workload's corpus request
// in-process: the seed-vary corpus, streamed over NDJSON, so every request
// misses the response cache, hits the plan cache for every scenario and
// pays keying, aggregation and response rendering. progress_frames/op
// counts the streamed progress events: the throttle spends at least 64
// trials on one, so this 30-scenario corpus streams exactly one.
func BenchmarkServe_SweepCorpusStream(b *testing.B) {
	b.ReportMetric(runSeedVary(b, serve.Config{}, "/v1/sweep/stream"), "progress_frames/op")
}
