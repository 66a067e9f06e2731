// Command wfbench is the repository's benchmark: one in-process Go program
// that serves three seeded workloads (dashboard, scan, explore) through
// cluster.Gate and serve.Server handlers with no sockets, one closed-loop
// client each, checks every response, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). See
// README.md for the workloads, the metrics and how to read the traced run.
//
//	go run . --workload scan --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRuns is how many fresh set-ups a --trace 0 run times, half before
// the window and half after it; setup_s is their median. The first one or
// two in a fresh process run slow (heap growth, first-touch pages), and
// set-ups on both sides of the window sample the shared host at two times
// rather than one.
const setupRuns = 8

// spanDir receives the traced run's spans, relative to the working
// directory (tests point it elsewhere).
var spanDir = ".wfbench-out"

// endToEndUnits lists every end-to-end metric --trace 0 prints, with its
// unit. All are measured with tracing off.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"throughput_ops":  "1/s",
	"latency_p50_ms":  "ms",
	"latency_p95_ms":  "ms",
	"ttfb_p50_ms":     "ms",
	"cpu_ms_per_op":   "ms",
	"alloc_kb_per_op": "KB",
	"live_heap_mb":    "MB",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the run metadata printed before the result.
type meta struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Attempted  int                `json:"attempted"`
	Succeeded  int                `json:"succeeded"`
	Failed     int                `json:"failed"`
	SetupS     []float64          `json:"setup_samples_s,omitempty"`
	P99MS      pctl               `json:"p99_ms"` // diagnostic, not gated
	Classes    map[string]classMS `json:"classes"`
	Oracle     int                `json:"oracle_checked"`
	Errors     []string           `json:"errors,omitempty"`
}

// classMS is one request class's latency quartiles over the window.
type classMS struct {
	N     int     `json:"n"`
	P25MS float64 `json:"p25_ms"`
	P50MS float64 `json:"p50_ms"`
	P75MS float64 `json:"p75_ms"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: dashboard, scan, or explore")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: wfbench --workload dashboard|scan|explore --seed N --seconds S --trace 0|1")
		return 2
	}
	m := meta{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second, &m)
	} else {
		res, err = runTimed(w, *seed, time.Duration(*seconds)*time.Second, &m)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfbench:", err)
		return 1
	}
	m.Attempted, m.Failed, m.Succeeded = res.Attempted, res.Failed, res.Attempted-res.Failed
	for _, e := range m.Errors {
		fmt.Fprintln(os.Stderr, "wfbench: failed:", e)
	}
	line, _ := json.Marshal(map[string]any{"meta": m})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runTimed measures the end-to-end metrics with tracing off.
func runTimed(w *workload, seed uint64, d time.Duration, m *meta) (*result, error) {
	r, err := timeSetUps(w, seed, setupRuns/2, m)
	if err != nil {
		return nil, err
	}
	win, failed, err := measure(w, r, seed, d, m)
	if err != nil {
		return nil, err
	}
	defer win.free()
	ops := float64(len(win.latMS))
	lat, ttfb := sortedCopy(win.latMS), sortedCopy(win.ttfbMS)
	lp50, lp95, tp50 := percentile(lat, 0.5), percentile(lat, 0.95), percentile(ttfb, 0.5)
	if !lp50.OK || !lp95.OK || !tp50.OK {
		return nil, fmt.Errorf("window too short: %d successful requests leave fewer than %d beyond p95", len(lat), minBeyond)
	}
	res := &result{Correct: failed == 0, Attempted: win.attempted, Failed: failed, Metrics: map[string]metric{}}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnits[name]} }
	set("throughput_ops", win.throughput())
	set("latency_p50_ms", lp50.Value)
	set("latency_p95_ms", lp95.Value)
	set("ttfb_p50_ms", tp50.Value)
	set("cpu_ms_per_op", float64(win.after.cpu-win.before.cpu)/1e6/ops)
	set("alloc_kb_per_op", float64(win.after.allocs-win.before.allocs)/1024/ops)
	// The live heap is read with the servers still reachable and the
	// window's samples dropped, after two collections. The measured rig is
	// dead past it, so the remaining set-ups start from an empty heap.
	win.free()
	set("live_heap_mb", float64(liveHeapBytes())/(1<<20))
	runtime.KeepAlive(r)
	if _, err := timeSetUps(w, seed, setupRuns-setupRuns/2, m); err != nil {
		return nil, err
	}
	set("setup_s", median(m.SetupS))
	return res, nil
}

// timeSetUps times n fresh set-ups, each after a forced GC, appends their
// durations to m.SetupS and returns the last rig.
func timeSetUps(w *workload, seed uint64, n int, m *meta) (*rig, error) {
	var r *rig
	for k := 0; k < n; k++ {
		r = nil
		runtime.GC()
		start := time.Now()
		rr, err := setUp(w, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.SetupS = append(m.SetupS, time.Since(start).Seconds())
		r = rr
	}
	return r, nil
}

// measure runs the oracle's pool check, the timed window and the oracle's
// sample check, and returns the window with its failure count (failed
// requests plus oracle mismatches).
func measure(w *workload, r *rig, seed uint64, d time.Duration, m *meta) (*window, int, error) {
	var errs []error
	if w.gate {
		errs = checkPool(r)
		m.Oracle += len(r.pool)
	}
	gen := w.stream(seed)
	for i := 0; i < w.warmup; i++ {
		gen.next()
	}
	var sampled map[int]bool
	if !w.gate {
		sampled = sampleIndices(seed)
	}
	win, err := runWindow(r, gen, d, sampled)
	if err != nil {
		return nil, 0, err
	}
	if win.before.rusageErr != nil || win.after.rusageErr != nil {
		win.free()
		return nil, 0, fmt.Errorf("getrusage: %v %v", win.before.rusageErr, win.after.rusageErr)
	}
	errs = append(errs, checkSamples(win.samples)...)
	m.Oracle += len(win.samples)
	m.Errors = win.errs
	for _, e := range errs {
		m.Errors = appendErr(m.Errors, e)
	}
	m.P99MS = percentile(sortedCopy(win.latMS), 0.99)
	m.Classes = map[string]classMS{}
	for c, name := range w.classes {
		var v []float64
		for i, cl := range win.classes {
			if int(cl) == c {
				v = append(v, win.latMS[i])
			}
		}
		v = sortedCopy(v)
		m.Classes[name] = classMS{N: len(v), P25MS: percentile(v, 0.25).Value,
			P50MS: percentile(v, 0.5).Value, P75MS: percentile(v, 0.75).Value}
	}
	return win, win.failed + len(errs), nil
}

// runTraced measures the per-layer metrics: an untraced window for the
// counters and the untraced throughput, then a traced run on a fresh
// set-up.
func runTraced(w *workload, seed uint64, d time.Duration, m *meta) (*result, error) {
	r, err := setUp(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	win, failed, err := measure(w, r, seed, d, m)
	if err != nil {
		return nil, err
	}
	defer win.free()
	r = nil
	runtime.GC()
	tr, err := tracedRun(w, seed, d)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for _, e := range tr.errs {
		m.Errors = appendErr(m.Errors, fmt.Errorf("traced: %s", e))
	}
	rows := selfTimeTable(tr.spans)
	printSelfTimeTable(os.Stdout, w.name, rows)
	if err := writeSpans(w, seed, m, rows, tr.spans); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   failed+tr.failed == 0,
		Attempted: win.attempted + tr.ops,
		Failed:    failed + tr.failed,
		Metrics:   layerMetrics(win, tr),
	}
	return res, nil
}

// writeSpans writes the traced run's spans, its metadata and self-time
// table as one JSON document.
func writeSpans(w *workload, seed uint64, m *meta, rows []layerRow, spans []span) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	data, err := json.Marshal(map[string]any{"meta": m, "self_time": rows, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
