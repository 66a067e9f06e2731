package main

import (
	"wroofline/internal/cluster"
	"wroofline/internal/serve"
)

// layerMetricUnits lists every per-layer metric --trace 1 prints, with its
// unit. Span timings come from the traced run; counters are deltas of the
// public snapshots over the untraced window. A layer a workload never
// reaches reports 0.
var layerMetricUnits = map[string]string{
	"cluster.self_us_p50":           "us",
	"cluster.alloc_kb_per_op":       "KB",
	"cluster.upstream_calls_per_op": "count",
	"cluster.coalesced":             "count",
	"cluster.upstream_errors":       "count",
	"cluster.not_modified":          "count",
	"serve.handler_us_p50":          "us",
	"serve.self_us_p50":             "us",
	"serve.key_us_p50":              "us",
	"serve.cache_hit_ratio":         "ratio",
	"serve.evaluations_per_op":      "count",
	"serve.coalesced":               "count",
	"serve.queue_sheds":             "count",
	"serve.queue_timeouts":          "count",
	"serve.non2xx":                  "count",
	"plancache.key_us_p50":          "us",
	"plancache.get_ns_p50":          "ns",
	"plancache.hit_ratio":           "ratio",
	"plancache.evictions_per_op":    "count",
	"study.run_us_p50":              "us",
	"study.first_progress_us_p50":   "us",
	"sweep.summarize_us_p50":        "us",
	"wfgen.generate_us_p50":         "us",
	"core.build_us_p50":             "us",
	"sim.compile_us_p50":            "us",
	"sim.run_us_p50":                "us",
	"sim.analytic_share":            "ratio",
	"wfgen.tasks_per_op":            "count",
	"runtime.gc_cpu_share":          "ratio",
	"runtime.gc_cycles_per_kop":     "count",
	"trace.overhead_pct":            "%",
}

// spanMetrics maps a span name to the p50 metric of its duration.
var spanMetrics = map[string]string{
	"serve.key":       "serve.key_us_p50",
	"plancache.key":   "plancache.key_us_p50",
	"study.run":       "study.run_us_p50",
	"sweep.summarize": "sweep.summarize_us_p50",
	"wfgen.generate":  "wfgen.generate_us_p50",
	"core.build":      "core.build_us_p50",
	"sim.compile":     "sim.compile_us_p50",
	"sim.run":         "sim.run_us_p50",
}

// layerMetrics computes the per-layer metrics of a --trace 1 run.
func layerMetrics(win *window, tr *traceRun) map[string]metric {
	out := make(map[string]metric, len(layerMetricUnits))
	set := func(name string, v float64) { out[name] = metric{v, layerMetricUnits[name]} }
	for name := range layerMetricUnits {
		set(name, 0)
	}

	// Span timings, in microseconds (plancache lookups in nanoseconds).
	durUS := map[string][]float64{}
	self := selfTimes(tr.spans)
	handler := map[int]bool{}
	serveSelf := map[int]float64{}
	var clusterSelf []float64
	for i, s := range tr.spans {
		us := float64(s.dur()) / 1e3
		durUS[s.Name] = append(durUS[s.Name], us)
		switch s.Name {
		case "cluster.handler":
			clusterSelf = append(clusterSelf, float64(self[i])/1e3)
		case "serve.handler":
			handler[s.ID] = true
			serveSelf[s.ID] += us
		}
	}
	// The serve layer's own time is its handler span minus the layers it
	// calls below it (the study run, or a model's case build and analysis);
	// its key replay stays inside.
	for _, s := range tr.spans {
		if handler[s.Parent] && s.layer() != "serve" {
			serveSelf[s.Parent] -= float64(s.dur()) / 1e3
		}
	}
	var serveSelfUS []float64
	for id := range handler {
		serveSelfUS = append(serveSelfUS, max(serveSelf[id], 0))
	}
	set("cluster.self_us_p50", p50(clusterSelf))
	set("serve.handler_us_p50", p50(durUS["serve.handler"]))
	set("serve.self_us_p50", p50(serveSelfUS))
	for span, name := range spanMetrics {
		set(name, p50(durUS[span]))
	}
	set("plancache.get_ns_p50", 1e3*p50(durUS["plancache.get"]))
	set("study.first_progress_us_p50", p50(tr.rp.firstUS))
	if tr.rp.simRuns > 0 {
		set("sim.analytic_share", float64(tr.rp.analytic)/float64(tr.rp.simRuns))
	}
	if tr.ops > 0 {
		set("wfgen.tasks_per_op", float64(tr.rp.tasks)/float64(tr.ops))
	}
	set("cluster.alloc_kb_per_op", tr.gateKB)

	// Counters over the untraced window.
	ops := float64(len(win.latMS))
	if ops == 0 {
		return out
	}
	sd := func(f func(serve.Snapshot) uint64) float64 { return counterDelta(win.snapsFrom, win.snapsTo, f) }
	hits := sd(func(s serve.Snapshot) uint64 { return s.Cache.Hits })
	misses := sd(func(s serve.Snapshot) uint64 { return s.Cache.Misses })
	set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	set("serve.evaluations_per_op", sd(func(s serve.Snapshot) uint64 { return s.Evaluations })/ops)
	set("serve.coalesced", sd(func(s serve.Snapshot) uint64 { return s.Coalesced }))
	set("serve.queue_sheds", sd(func(s serve.Snapshot) uint64 { return s.QueueSheds }))
	set("serve.queue_timeouts", sd(func(s serve.Snapshot) uint64 { return s.QueueTimeouts }))
	set("serve.non2xx", sd(non2xx))
	pHits := sd(func(s serve.Snapshot) uint64 { return s.PlanCacheHits })
	pMisses := sd(func(s serve.Snapshot) uint64 { return s.PlanCacheMisses })
	set("plancache.hit_ratio", ratio(pHits, pHits+pMisses))
	set("plancache.evictions_per_op", sd(func(s serve.Snapshot) uint64 { return s.PlanCacheEvictions })/ops)

	g0, g1 := win.gateFrom, win.gateTo
	set("cluster.upstream_calls_per_op", (backendRequests(g1)-backendRequests(g0))/ops)
	set("cluster.coalesced", float64(g1.Coalesced-g0.Coalesced))
	set("cluster.upstream_errors", float64(g1.UpstreamErrors-g0.UpstreamErrors))
	set("cluster.not_modified", float64(g1.NotModified-g0.NotModified))

	cpu := (win.after.cpu - win.before.cpu).Seconds()
	set("runtime.gc_cpu_share", ratio(win.after.gcCPU-win.before.gcCPU, cpu))
	set("runtime.gc_cycles_per_kop", 1e3*float64(win.after.gcCycles-win.before.gcCycles)/ops)
	if tr.ops > 0 && tr.elapsed > 0 {
		untraced := win.throughput()
		traced := float64(tr.ops) / tr.elapsed.Seconds()
		set("trace.overhead_pct", 100*(untraced/traced-1))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func backendRequests(s cluster.Snapshot) float64 {
	var n float64
	for _, b := range s.Backends {
		n += float64(b.Requests)
	}
	return n
}
