package main

import (
	"fmt"
	"strconv"

	"wroofline/internal/figures"
	"wroofline/internal/workloads"
)

// blockSize is the length of one shuffled block of request classes: each
// block holds exactly slots[c] requests of class c in a seed-driven order,
// so every run carries the declared mix exactly rather than a random draw
// around it.
const blockSize = 20

// rng is splitmix64: small, seedable, and the same stream on every
// platform.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*31 + uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mixer deals class indices in shuffled blocks of blockSize.
type mixer struct {
	rng   *rng
	block []int
	pos   int
}

func newMixer(r *rng, slots []int) *mixer {
	m := &mixer{rng: r}
	for c, n := range slots {
		for i := 0; i < n; i++ {
			m.block = append(m.block, c)
		}
	}
	if len(m.block) != blockSize {
		panic(fmt.Sprintf("wfbench: class slots sum to %d, want %d", len(m.block), blockSize))
	}
	m.pos = len(m.block)
	return m
}

func (m *mixer) next() int {
	if m.pos == len(m.block) {
		for i := len(m.block) - 1; i > 0; i-- {
			j := m.rng.intn(i + 1)
			m.block[i], m.block[j] = m.block[j], m.block[i]
		}
		m.pos = 0
	}
	c := m.block[m.pos]
	m.pos++
	return c
}

// request is one generated client request. body aliases the generator's
// buffer and is valid until the next call to next.
type request struct {
	class  int
	method string
	path   string
	body   []byte
	// stream asks for NDJSON delivery (Accept: application/x-ndjson).
	stream bool
	// pool is the dashboard pool entry the request replays (-1 otherwise);
	// revalidate sends that entry's ETag in If-None-Match.
	pool       int
	revalidate bool
}

// generator produces a workload's request stream from its seed.
type generator interface {
	next() request
}

// workload is one traffic mix. Every workload is a closed loop with one
// client.
type workload struct {
	name    string
	classes []string
	slots   []int // per class, summing to blockSize
	// fastestFirst orders the classes by their measured latency (the
	// run metadata reports each class's quartiles). The seams between
	// consecutive classes must stay at least 0.1 away from every gated
	// percentile (p50, p95), so neither swings between two classes.
	fastestFirst []int
	// gate routes the client through cluster.Gate over two replicas;
	// otherwise it talks to one serve.Server directly.
	gate bool
	// warmup is how many leading requests of the stream each set-up
	// replays before timing (scan, explore); the dashboard warms from its
	// fixed pool instead.
	warmup int
	// traceN is how many requests after the warm-up the traced run
	// replays, one at a time.
	traceN int
	newGen func(w *workload, seed uint64) generator
}

// stream returns the workload's request stream for seed.
func (w *workload) stream(seed uint64) generator { return w.newGen(w, seed) }

var allWorkloads = []*workload{dashboardWorkload, scanWorkload, exploreWorkload}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want dashboard, scan, or explore)", name)
}

// ---- dashboard ----

// poolEntry is one fixed dashboard request.
type poolEntry struct {
	class  int // dashModel, dashSweep, or dashFigure
	method string
	path   string
	body   []byte
}

const (
	dashModel = iota
	dashSweep
	dashFigure
	dashRevalidate
)

// dashboardSweeps are small fixed sweeps of every study kind, rendered once
// in set-up and served from the response cache afterwards.
var dashboardSweeps = []string{
	`{"kind":"montecarlo","case":"lcls-cori","trials":200,"seed":7,"streams":5,"sampler":{"model":"twostate","base":"1 GB/s","degraded":"0.2 GB/s","p_bad":0.4}}`,
	`{"kind":"grid","case":"lcls-cori","p":5,"resources":[{"resource":"memory","factors":[1,2,10]}],"wall_factors":[1,2],"intra_task":[{"k":2,"efficiency":0.9}]}`,
	`{"kind":"survey","machine":"perlmutter","partition":"cpu","widths":[4,8,16],"depths":[2,3],"nodes_per_task":2,"work":{"flops":"5 TFLOP","fs":"100 GB"}}`,
	`{"kind":"failures","case":"lcls-cori","trials":50,"seed":7,"failure":{"task_fail_prob":0.02,"restage_rate":"1 GB/s"}}`,
	`{"kind":"corpus","machine":"perlmutter-numa","count":20,"seed":11,"template":{"width":4,"depth":3,"payload":"1 GB"}}`,
}

// dashboardPool is the fixed request pool: every built-in case and the
// Fig 1 example through /v1/model, the fixed sweeps, and every figure.
func dashboardPool() []poolEntry {
	var pool []poolEntry
	for _, c := range append([]string{"example"}, workloads.Names()...) {
		pool = append(pool, poolEntry{dashModel, "POST", "/v1/model", []byte(`{"case":"` + c + `"}`)})
	}
	for _, s := range dashboardSweeps {
		pool = append(pool, poolEntry{dashSweep, "POST", "/v1/sweep", []byte(s)})
	}
	for _, f := range figures.Names() {
		pool = append(pool, poolEntry{dashFigure, "GET", "/v1/figures/" + f, nil})
	}
	return pool
}

var dashboardWorkload = &workload{
	name: "dashboard",
	// Revalidations draw from the whole pool; a 304 carries no body. Sweep
	// hits copy the largest bodies and are the slowest class; the seams sit
	// at 0.1, 0.2 and 0.8, so p50 falls mid-way through the model hits and
	// p95 inside the sweep hits.
	classes:      []string{"model", "sweep", "figure", "revalidate"},
	slots:        []int{12, 4, 2, 2},
	fastestFirst: []int{dashFigure, dashRevalidate, dashModel, dashSweep},
	gate:         true,
	traceN:       3000,
	newGen: func(w *workload, seed uint64) generator {
		pool := dashboardPool()
		g := &dashboardGen{rng: newRNG(seed, "dashboard"), pool: pool, byClass: make([][]int, 3)}
		for i, e := range pool {
			g.byClass[e.class] = append(g.byClass[e.class], i)
		}
		g.mix = newMixer(g.rng, w.slots)
		return g
	},
}

type dashboardGen struct {
	rng     *rng
	mix     *mixer
	pool    []poolEntry
	byClass [][]int
}

func (g *dashboardGen) next() request {
	c := g.mix.next()
	var idx int
	if c == dashRevalidate {
		idx = g.rng.intn(len(g.pool))
	} else {
		ids := g.byClass[c]
		idx = ids[g.rng.intn(len(ids))]
	}
	e := g.pool[idx]
	return request{class: c, method: e.method, path: e.path, body: e.body, pool: idx, revalidate: c == dashRevalidate}
}

// ---- scan ----

// The scan Monte Carlo sampler, shared by the request bodies and the
// traced run's replay of the day draws.
const (
	scanMCCase     = "lcls-cori"
	scanMCTrials   = 256
	scanMCStreams  = 5
	scanMCBase     = "1 GB/s"
	scanMCDegraded = "0.2 GB/s"
	scanMCPBad     = 0.4
)

var scanWorkload = &workload{
	name: "scan",
	// The two classes overlap; their seam sits at 0.65.
	classes:      []string{"corpus", "montecarlo"},
	slots:        []int{13, 7},
	fastestFirst: []int{0, 1},
	warmup:       1536,
	traceN:       800,
	newGen: func(w *workload, seed uint64) generator {
		r := newRNG(seed, "scan")
		return &specGen{rng: r, mix: newMixer(r, w.slots), classes: []specClass{
			{path: "/v1/sweep", stream: true, render: func(b []byte, seed uint64, _ int) []byte {
				b = append(b, `{"kind":"corpus","machine":"perlmutter-numa","count":30,"seed":`...)
				b = strconv.AppendUint(b, seed, 10)
				return append(b, `,"template":{"width":5,"depth":3,"payload":"512 MB"}}`...)
			}},
			{path: "/v1/sweep", stream: true, render: func(b []byte, seed uint64, _ int) []byte {
				b = append(b, `{"kind":"montecarlo","case":"`+scanMCCase+`","trials":`...)
				b = strconv.AppendInt(b, scanMCTrials, 10)
				b = append(b, `,"seed":`...)
				b = strconv.AppendUint(b, seed, 10)
				b = append(b, `,"streams":`...)
				b = strconv.AppendInt(b, scanMCStreams, 10)
				return append(b, `,"sampler":{"model":"twostate","base":"`+scanMCBase+`","degraded":"`+scanMCDegraded+`","p_bad":`+
					strconv.FormatFloat(scanMCPBad, 'g', -1, 64)+`}}`...)
			}},
		}}
	},
}

// ---- explore ----

// exploreCurveSamples is the fixed curve_samples cycle of the model class.
// With the 15 built-in cases it spans 180 model requests, 1200 requests of
// the whole mix, before a body repeats: more than twice what the 512-entry
// response cache holds, so every model call is a cold evaluation.
var exploreCurveSamples = []int{16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160}

var exploreWorkload = &workload{
	name: "explore",
	// The corpus class dominates the count. The 600-trial failure ensembles
	// are the slowest class, so p50 falls near the middle of the corpus
	// class and p95 inside the failure class; the seams sit at 0.15 and
	// 0.75.
	classes:      []string{"corpus", "failures", "model"},
	slots:        []int{12, 5, 3},
	fastestFirst: []int{2, 0, 1},
	warmup:       640,
	traceN:       400,
	newGen: func(w *workload, seed uint64) generator {
		r := newRNG(seed, "explore")
		cases := workloads.Names()
		return &specGen{rng: r, mix: newMixer(r, w.slots), classes: []specClass{
			{path: "/v1/sweep", render: func(b []byte, seed uint64, _ int) []byte {
				b = append(b, `{"kind":"corpus","machine":"perlmutter-numa","count":10,"seed":`...)
				b = strconv.AppendUint(b, seed, 10)
				return append(b, `,"template":{"width":6,"depth":3,"cv":0.4,"payload":"1 GB"}}`...)
			}},
			{path: "/v1/sweep", render: func(b []byte, seed uint64, _ int) []byte {
				b = append(b, `{"kind":"failures","case":"lcls-cori","trials":600,"seed":`...)
				b = strconv.AppendUint(b, seed, 10)
				return append(b, `,"failure":{"task_fail_prob":0.02,"restage_rate":"1 GB/s"}}`...)
			}},
			{path: "/v1/model", render: func(b []byte, _ uint64, j int) []byte {
				b = append(b, `{"case":"`...)
				b = append(b, cases[j%len(cases)]...)
				b = append(b, `","curve_samples":`...)
				b = strconv.AppendInt(b, int64(exploreCurveSamples[j/len(cases)%len(exploreCurveSamples)]), 10)
				return append(b, '}')
			}},
		}}
	},
}

// specClass renders one class of generated request bodies. seed is fresh
// per request; j counts the class's own requests.
type specClass struct {
	path   string
	stream bool
	render func(b []byte, seed uint64, j int) []byte
	n      int
}

// specGen is the scan/explore generator: a seeded class mix over body
// templates with fresh 53-bit seeds.
type specGen struct {
	rng     *rng
	mix     *mixer
	classes []specClass
	buf     []byte
}

func (g *specGen) next() request {
	c := g.mix.next()
	cl := &g.classes[c]
	g.buf = cl.render(g.buf[:0], g.rng.next()>>11, cl.n)
	cl.n++
	return request{class: c, method: "POST", path: cl.path, body: g.buf, stream: cl.stream, pool: -1}
}
