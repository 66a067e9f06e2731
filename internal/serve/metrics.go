package serve

import (
	"sync/atomic"
	"time"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// request-latency histogram; the implicit final bucket is +Inf. The range
// spans a cache hit (~10 µs) to a heavyweight Monte Carlo sweep (minutes).
var latencyBucketsMS = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000,
}

// Status codes are folded into statusSlots fixed atomic slots: 100..599
// map to code-100, everything else to the final "other" slot. A fixed
// array keeps the observe path free of maps and mutexes.
const (
	statusSlotMin   = 100
	statusSlotMax   = 599
	statusSlots     = statusSlotMax - statusSlotMin + 2
	statusSlotOther = statusSlots - 1
)

// statusSlot maps an HTTP status code to its atomic counter index.
func statusSlot(code int) int {
	if code < statusSlotMin || code > statusSlotMax {
		return statusSlotOther
	}
	return code - statusSlotMin
}

// metrics aggregates service counters. Everything on the observe path is
// an atomic on pre-registered state: the route table is built once at
// construction and never mutated, handlers resolve their *endpointStats a
// single time at registration, and each observation is a handful of
// atomic adds — no mutex, no map write, no allocation.
type metrics struct {
	start     time.Time
	names     []string // registration order, for deterministic iteration
	endpoints map[string]*endpointStats

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	coalesced   atomic.Uint64
	evaluations atomic.Uint64
	peerFills   atomic.Uint64

	queueTimeouts atomic.Uint64
	evalTimeouts  atomic.Uint64

	// Admission-control and streaming counters (PR 10): requests shed
	// because a tenant's waiter queue was full, shed by a tenant token
	// bucket, grants handed back because the deadline had already passed,
	// streaming responses served, and streams aborted by the client
	// mid-flight.
	queueSheds    atomic.Uint64
	rateSheds     atomic.Uint64
	deadlineSkips atomic.Uint64
	streams       atomic.Uint64
	streamAborts  atomic.Uint64
}

// endpointStats is the per-route slice of the counters: a request count,
// fixed per-status slots, and a fixed-bucket latency histogram, all atomic.
type endpointStats struct {
	count    atomic.Uint64
	byStatus [statusSlots]atomic.Uint64
	latency  []atomic.Uint64 // one slot per bucket + overflow
}

// newMetrics builds the immutable registry for the given route names.
// Observing an unregistered name is impossible by construction: handlers
// hold the *endpointStats they were registered with.
func newMetrics(names ...string) *metrics {
	m := &metrics{
		start:     time.Now(),
		names:     names,
		endpoints: make(map[string]*endpointStats, len(names)),
	}
	for _, name := range names {
		m.endpoints[name] = &endpointStats{
			latency: make([]atomic.Uint64, len(latencyBucketsMS)+1),
		}
	}
	return m
}

// endpoint returns the stats for a registered route name (nil if unknown).
func (m *metrics) endpoint(name string) *endpointStats { return m.endpoints[name] }

// observe records one completed request: three atomic adds and a short
// linear scan over the 19 bucket bounds.
func (st *endpointStats) observe(status int, dur time.Duration) {
	st.count.Add(1)
	st.byStatus[statusSlot(status)].Add(1)
	ms := float64(dur) / float64(time.Millisecond)
	slot := len(latencyBucketsMS)
	for i, le := range latencyBucketsMS {
		if ms <= le {
			slot = i
			break
		}
	}
	st.latency[slot].Add(1)
}

// Snapshot is the JSON shape of /metrics.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Requests      map[string]EndpointSnapshot `json:"requests"`
	Cache         CacheSnapshot               `json:"cache"`
	Coalesced     uint64                      `json:"coalesced"`
	Evaluations   uint64                      `json:"evaluations"`
	QueueTimeouts uint64                      `json:"queue_timeouts"`
	EvalTimeouts  uint64                      `json:"eval_timeouts"`
	// PeerFills counts misses satisfied from a peer replica's cache instead
	// of a local evaluation (cluster mode; omitted when zero so the
	// single-process snapshot shape is unchanged).
	PeerFills uint64 `json:"peer_fills,omitempty"`
	// Admission-control and streaming counters, all omitted when zero so
	// earlier snapshot shapes are unchanged: QueueSheds are immediate
	// rejections on a full tenant queue, RateSheds token-bucket rejections,
	// DeadlineSkips slot grants returned unused because the request's
	// deadline had passed, Streams completed streaming responses, and
	// StreamAborts streams the client abandoned mid-flight.
	QueueSheds    uint64 `json:"queue_sheds,omitempty"`
	RateSheds     uint64 `json:"rate_sheds,omitempty"`
	DeadlineSkips uint64 `json:"deadline_skips,omitempty"`
	Streams       uint64 `json:"streams,omitempty"`
	StreamAborts  uint64 `json:"stream_aborts,omitempty"`
	// Second-level plan cache counters (construction artifacts: compiled
	// plans, built models, corpus shapes and CV 0 corpus outcomes), filled
	// by the Server from the plancache stats. All omitted when zero / when
	// the cache is disabled, so earlier snapshot shapes are unchanged.
	PlanCacheEntries   int    `json:"plan_cache_entries,omitempty"`
	PlanCacheHits      uint64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses    uint64 `json:"plan_cache_misses,omitempty"`
	PlanCacheEvictions uint64 `json:"plan_cache_evictions,omitempty"`
}

// EndpointSnapshot summarizes one route.
type EndpointSnapshot struct {
	Count     uint64            `json:"count"`
	ByStatus  map[string]uint64 `json:"by_status"`
	LatencyMS []LatencyBucket   `json:"latency_ms"`
	// Percentiles estimates p50/p95/p99 from the latency histogram; nil
	// until the route has served a request. A new field — the rest of the
	// snapshot shape is unchanged from earlier releases.
	Percentiles *PercentileSnapshot `json:"percentiles_ms,omitempty"`
}

// PercentileSnapshot carries histogram-derived latency percentiles in
// milliseconds. Each value interpolates linearly inside its bucket, so the
// error is bounded by the bucket width; observations past the last finite
// bound (60 s) report that bound.
type PercentileSnapshot struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// LatencyBucket is one histogram bar: requests at or under LE milliseconds
// (cumulative-free, per-bucket counts; LE 0 marks the +Inf overflow bucket).
type LatencyBucket struct {
	LE    float64 `json:"le,omitempty"`
	Count uint64  `json:"count"`
}

// CacheSnapshot reports the content-addressed cache's effectiveness.
type CacheSnapshot struct {
	Entries  int     `json:"entries"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// histogramPercentile estimates the q-th percentile (0 < q < 1) from
// per-bucket counts, interpolating linearly between bucket bounds. The
// overflow bucket is clamped to the last finite bound.
func histogramPercentile(counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	lo := 0.0
	for i, n := range counts {
		if n == 0 {
			if i < len(latencyBucketsMS) {
				lo = latencyBucketsMS[i]
			}
			continue
		}
		next := cum + float64(n)
		if next >= target {
			if i >= len(latencyBucketsMS) { // overflow bucket
				return latencyBucketsMS[len(latencyBucketsMS)-1]
			}
			hi := latencyBucketsMS[i]
			frac := (target - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
		if i < len(latencyBucketsMS) {
			lo = latencyBucketsMS[i]
		}
	}
	return latencyBucketsMS[len(latencyBucketsMS)-1]
}

// snapshot copies the counters into their serializable form. Empty latency
// buckets are elided to keep /metrics readable; atomic loads mean the
// snapshot is a near-point-in-time view, never a blocked observe path.
func (m *metrics) snapshot(cacheEntries int) Snapshot {
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	snap := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      make(map[string]EndpointSnapshot, len(m.endpoints)),
		Cache: CacheSnapshot{
			Entries: cacheEntries,
			Hits:    hits,
			Misses:  misses,
		},
		Coalesced:     m.coalesced.Load(),
		Evaluations:   m.evaluations.Load(),
		QueueTimeouts: m.queueTimeouts.Load(),
		EvalTimeouts:  m.evalTimeouts.Load(),
		PeerFills:     m.peerFills.Load(),
		QueueSheds:    m.queueSheds.Load(),
		RateSheds:     m.rateSheds.Load(),
		DeadlineSkips: m.deadlineSkips.Load(),
		Streams:       m.streams.Load(),
		StreamAborts:  m.streamAborts.Load(),
	}
	if total := hits + misses; total > 0 {
		snap.Cache.HitRatio = float64(hits) / float64(total)
	}
	for _, name := range m.names {
		st := m.endpoints[name]
		count := st.count.Load()
		if count == 0 {
			continue
		}
		es := EndpointSnapshot{Count: count, ByStatus: make(map[string]uint64)}
		for slot := range st.byStatus {
			if n := st.byStatus[slot].Load(); n > 0 {
				code := slot + statusSlotMin
				if slot == statusSlotOther {
					code = 0
				}
				es.ByStatus[statusLabel(code)] = n
			}
		}
		counts := make([]uint64, len(st.latency))
		var mass uint64
		for i := range st.latency {
			counts[i] = st.latency[i].Load()
			mass += counts[i]
		}
		for i, n := range counts {
			if n == 0 {
				continue
			}
			b := LatencyBucket{Count: n}
			if i < len(latencyBucketsMS) {
				b.LE = latencyBucketsMS[i]
			}
			es.LatencyMS = append(es.LatencyMS, b)
		}
		if mass > 0 {
			es.Percentiles = &PercentileSnapshot{
				P50: histogramPercentile(counts, mass, 0.50),
				P95: histogramPercentile(counts, mass, 0.95),
				P99: histogramPercentile(counts, mass, 0.99),
			}
		}
		snap.Requests[name] = es
	}
	return snap
}

// statusLabel renders an HTTP status code as a JSON map key.
func statusLabel(code int) string {
	const digits = "0123456789"
	if code < 100 || code > 999 {
		return "other"
	}
	return string([]byte{digits[code/100], digits[code/10%10], digits[code%10]})
}
