package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

// render is a request stream's first n requests in a canonical byte form.
func render(w *workload, seed uint64, n int) []byte {
	var b bytes.Buffer
	gen := w.stream(seed)
	for i := 0; i < n; i++ {
		rq := gen.next()
		fmt.Fprintf(&b, "%d %s %s %t %d %t %s\n", rq.class, rq.method, rq.path, rq.stream, rq.pool, rq.revalidate, rq.body)
	}
	return b.Bytes()
}

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	for _, w := range allWorkloads {
		a, b := render(w, 42, 1000), render(w, 42, 1000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request streams", w.name)
		}
		if c := render(w, 43, 1000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same request stream", w.name)
		}
	}
}

func TestClassSharesMatchMix(t *testing.T) {
	const blocks = 200
	for _, w := range allWorkloads {
		gen := w.stream(7)
		total := make([]int, len(w.classes))
		for b := 0; b < blocks; b++ {
			block := make([]int, len(w.classes))
			for i := 0; i < blockSize; i++ {
				block[gen.next().class]++
			}
			for c, n := range block {
				if n != w.slots[c] {
					t.Fatalf("%s block %d: class %s has %d requests, want %d", w.name, b, w.classes[c], n, w.slots[c])
				}
				total[c] += n
			}
		}
		for c, n := range total {
			got, want := float64(n)/(blocks*blockSize), float64(w.slots[c])/blockSize
			t.Logf("%s: %s share %.2f (declared %.2f)", w.name, w.classes[c], got, want)
		}
	}
}

// TestGatedPercentilesAvoidSeams checks that no gated percentile (p50,
// p95) lies within 0.1 of a seam between two classes in their latency
// order.
func TestGatedPercentilesAvoidSeams(t *testing.T) {
	for _, w := range allWorkloads {
		if len(w.fastestFirst) != len(w.classes) {
			t.Fatalf("%s: fastestFirst orders %d of %d classes", w.name, len(w.fastestFirst), len(w.classes))
		}
		sum := 0
		for _, c := range w.fastestFirst[:len(w.fastestFirst)-1] {
			sum += w.slots[c]
			seam := float64(sum) / blockSize
			for _, q := range []float64{0.5, 0.95} {
				if d := seam - q; d > -0.1+1e-9 && d < 0.1-1e-9 {
					t.Errorf("%s: the seam after %s at %.2f lies within 0.1 of p%.0f", w.name, w.classes[c], seam, 100*q)
				}
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{100, 0.50, 50, 50, true},
		{100, 0.95, 95, 5, false},
		{199, 0.95, 190, 9, false},
		{200, 0.95, 190, 10, true},
		{999, 0.99, 990, 9, false},
		{1000, 0.99, 990, 10, true},
		{19, 0.50, 10, 9, false},
		{20, 0.50, 10, 10, true},
		{0, 0.50, 0, 0, false},
	} {
		p := percentile(samples(c.n), c.q)
		if p.Value != c.value || p.Beyond != c.beyond || p.OK != c.ok {
			t.Errorf("n=%d q=%.2f: got value %v beyond %d ok %t, want %v %d %t",
				c.n, c.q, p.Value, p.Beyond, p.OK, c.value, c.beyond, c.ok)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json these tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts declared names are well formed and exactly the
// emitted set, with the emitted units.
func checkMetrics(t *testing.T, kind string, declared []benchMetric, emitted map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range declared {
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s metric %q does not match %s", kind, m.Name, metricName)
		}
		if seen[m.Name] {
			t.Errorf("%s metric %q declared twice", kind, m.Name)
		}
		seen[m.Name] = true
		got, ok := emitted[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %q is declared but not emitted", kind, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s metric %q: emitted unit %q, declared %q", kind, m.Name, got.Unit, m.Unit)
		}
	}
	for name := range emitted {
		if !seen[name] {
			t.Errorf("%s metric %q is emitted but not declared", kind, name)
		}
	}
}

func TestBenchmarkFileMatchesEmittedMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark defines %d", names, len(allWorkloads))
	}
	if testing.Short() {
		t.Skip("the short run checks names only; the full run drives the benchmark")
	}
	spanDir = t.TempDir()
	m := meta{}
	res, err := runTimed(scanWorkload, 5, time.Second, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("timed run failed %d of %d: %v", res.Failed, res.Attempted, m.Errors)
	}
	checkMetrics(t, "end_to_end", f.EndToEnd, res.Metrics)
	m = meta{}
	res, err = runTraced(scanWorkload, 5, 300*time.Millisecond, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed %d of %d: %v", res.Failed, res.Attempted, m.Errors)
	}
	checkMetrics(t, "per_layer", f.PerLayer, res.Metrics)
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.key", Start: 100, End: 110, Replay: true},
		{ID: 3, Parent: 1, Name: "study.run", Start: 110, End: 170, Replay: true},
		{ID: 4, Parent: 3, Name: "plancache.get", Start: 110, End: 190, Replay: true},
	}
	self := selfTimes(spans)
	want := []int64{30, 10, 0, 80}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	rows := selfTimeTable(spans)
	if rows[0].Layer != "plancache" || rows[0].SelfMS != 80e-6 {
		t.Errorf("top layer %+v, want plancache with 80ns", rows[0])
	}
}
