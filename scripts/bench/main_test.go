package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryPatternsMatch fails when a -bench alternative matches no
// func Benchmark… in its package, so a renamed benchmark cannot quietly
// drop out of its BENCH file.
func TestRegistryPatternsMatch(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	for _, f := range registry {
		for _, r := range f.runs {
			files, err := filepath.Glob(filepath.Join("..", "..", r.pkg, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, file := range files {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
					names = append(names, m[1])
				}
			}
			for _, p := range r.bench {
				re := regexp.MustCompile(p)
				found := false
				for _, n := range names {
					found = found || re.MatchString(n)
				}
				if !found {
					t.Errorf("%s: -bench %q matches no func Benchmark in %s", f.name, p, r.pkg)
				}
			}
		}
	}
}

const canned = `goos: linux
goarch: amd64
pkg: wroofline
BenchmarkSweep_MonteCarlo/workers=1-2         	       3	   3000000 ns/op	         1.500 p99-over-p50	   3333333 trials/s	   40000 B/op	   10188 allocs/op
BenchmarkServe_HitParallel-4                  	  100000	      1500 ns/op	      16 B/op	       1 allocs/op
BenchmarkServe_SweepStreamTTFR-2              	       1	  62000000 ns/op	        62.00 total_ms/op	         3.100 ttfr_ms/op	         5.000 ttfr_pct	 9000000 B/op	   80000 allocs/op
BenchmarkAdmissionWFQ-2                       	 2000000	       400.0 ns/op	       0 B/op	       2 allocs/op
BenchmarkServe_SweepCorpusStream-2            	   20000	     56000 ns/op	         1.000 progress_frames/op	   16847 B/op	     191 allocs/op
some log line that is not a result
PASS
ok  	wroofline	3.2s
`

func TestParseSuffixAndMetricKeys(t *testing.T) {
	got := parse(canned, false)
	want := []string{"BenchmarkSweep_MonteCarlo/workers=1", "BenchmarkServe_HitParallel", "BenchmarkServe_SweepStreamTTFR", "BenchmarkAdmissionWFQ", "BenchmarkServe_SweepCorpusStream"}
	if len(got) != len(want) {
		t.Fatalf("parsed %d series, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Errorf("series %d stripped: %q, want %q", i, s.Name, want[i])
		}
	}
	mc := got[0].After
	for k, v := range map[string]float64{"ns_per_op": 3e6, "allocs_per_op": 10188, "trials_per_s": 3333333, "p99_over_p50": 1.5} {
		if mc[k] != v {
			t.Errorf("MonteCarlo %s = %v, want %v", k, mc[k], v)
		}
	}
	if _, ok := mc["B_per_op"]; ok || len(mc) != 4 {
		t.Errorf("MonteCarlo after = %v, want ns, allocs, trials/s and p99-over-p50 only", mc)
	}
	ttfr := got[2].After
	if ttfr["ttfr_ms"] != 3.1 || ttfr["total_ms"] != 62 || ttfr["ttfr_pct"] != 5 {
		t.Errorf("TTFR metrics = %v", ttfr)
	}
	if f := got[4].After["progress_frames"]; f != 1 {
		t.Errorf("progress_frames = %v, want 1", f)
	}

	kept := parse(canned, true)
	if kept[0].Name != "BenchmarkSweep_MonteCarlo/workers=1-2" || kept[1].Name != "BenchmarkServe_HitParallel-4" {
		t.Errorf("a -cpu entry must keep the suffix, got %q, %q", kept[0].Name, kept[1].Name)
	}
}

func TestMergeCarriesBeforeVerbatim(t *testing.T) {
	committed := `{"issue": 4, "note": "old", "results": [
	  {"name": "BenchmarkAdmissionWFQ", "before": {"ns_per_op": 451.2, "allocs_per_op": 2, "x": "kept"}, "after": {"ns_per_op": 451.2, "allocs_per_op": 2.0}},
	  {"name": "BenchmarkServe_HitParallel", "before": null, "after": {"ns_per_op": 1400, "allocs_per_op": 0}}]}`
	file := filepath.Join(t.TempDir(), "BENCH_X.json")
	if err := os.WriteFile(file, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	old := baseline(file, &log)
	if len(old.Results) != 2 || log.Len() != 0 {
		t.Fatalf("baseline read %d series, log %q", len(old.Results), log.String())
	}
	d := merge(benchFile{name: "BENCH_X", issue: 10, note: "new"}, parse(canned, false), old)
	if d.Issue != 10 || d.Note != "new" || d.NumCPU <= 0 || d.GOMAXPROCS <= 0 {
		t.Errorf("header = %d %q cpu=%d procs=%d", d.Issue, d.Note, d.NumCPU, d.GOMAXPROCS)
	}
	if b := d.series("BenchmarkAdmissionWFQ").Before; string(b) != `{"ns_per_op": 451.2, "allocs_per_op": 2, "x": "kept"}` {
		t.Errorf("before = %s, want the committed bytes", b)
	}
	if b := d.series("BenchmarkServe_HitParallel").Before; b != nil {
		t.Errorf("null before = %s, want none", b)
	}
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"before":{"ns_per_op":451.2,"allocs_per_op":2,"x":"kept"}`) ||
		!strings.Contains(string(out), `"name":"BenchmarkServe_HitParallel","before":null`) {
		t.Errorf("written document lost a before: %s", out)
	}

	if err := os.WriteFile(file, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if old := baseline(file, &log); len(old.Results) != 0 || !strings.Contains(log.String(), "starting fresh") {
		t.Errorf("an unparsable committed file must start fresh: %d series, log %q", len(old.Results), log.String())
	}
	if old := baseline(filepath.Join(t.TempDir(), "missing.json"), &log); len(old.Results) != 0 {
		t.Error("a missing committed file must start fresh")
	}
}

func TestCompareThresholds(t *testing.T) {
	results := []series{
		{Name: "Slow", After: map[string]float64{"ns_per_op": 151, "allocs_per_op": 10}},
		{Name: "SlowOK", After: map[string]float64{"ns_per_op": 150, "allocs_per_op": 10}},
		{Name: "Allocs", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 13}},
		{Name: "AllocsOK", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 12}},
		{Name: "ZeroFloor", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 1}},
		{Name: "ZeroOK", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 0}},
		{Name: "TTFR", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 0, "ttfr_pct": 5.1}},
		{Name: "TTFROK", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 0, "ttfr_pct": 5}},
		{Name: "Frames", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 0, "progress_frames": 2}},
		{Name: "FramesOK", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 0, "progress_frames": 1}},
		{Name: "Fresh", After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 0}},
	}
	old := &doc{}
	for _, n := range []string{"Slow", "SlowOK", "Allocs", "AllocsOK"} {
		old.Results = append(old.Results, series{Name: n, After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 10}})
	}
	for _, n := range []string{"ZeroFloor", "ZeroOK", "TTFR", "TTFROK", "Frames", "FramesOK"} {
		old.Results = append(old.Results, series{Name: n, After: map[string]float64{"ns_per_op": 100, "allocs_per_op": 0}})
	}

	var w bytes.Buffer
	compare(&w, results, old, map[string]float64{"ttfr_pct": 5, "progress_frames": 1})
	warned := map[string]bool{}
	for _, line := range strings.Split(w.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "WARNING:" {
			warned[f[1]+" "+f[2]] = true
		}
	}
	want := map[string]bool{"Slow ns_per_op": true, "Allocs allocs_per_op": true, "ZeroFloor allocs_per_op": true, "TTFR ttfr_pct": true, "Frames progress_frames": true}
	if len(warned) != len(want) {
		t.Errorf("warnings %v, want %v\n%s", warned, want, w.String())
	}
	for k := range want {
		if !warned[k] {
			t.Errorf("missing warning %q\n%s", k, w.String())
		}
	}
	if !strings.Contains(w.String(), "new benchmark (no baseline): Fresh") {
		t.Errorf("no new-benchmark line for Fresh:\n%s", w.String())
	}
}

func TestPlanCacheSpeedup(t *testing.T) {
	run := func(coldNS float64, coldBefore json.RawMessage) (*doc, string) {
		d := &doc{Results: []series{
			{Name: "BenchmarkServe_SweepSeedVaryCold", Before: coldBefore, After: map[string]float64{"ns_per_op": coldNS, "allocs_per_op": 300}},
			{Name: "BenchmarkServe_SweepSeedVaryNoPlanCache", After: map[string]float64{"ns_per_op": 1000, "allocs_per_op": 15000}},
		}}
		var w bytes.Buffer
		planCacheSpeedup(d, &w)
		return d, w.String()
	}

	d, out := run(250, nil)
	if strings.Contains(out, "WARNING") || d.Speedup == nil || *d.Speedup != 4 {
		t.Errorf("4x: speedup %v:\n%s", d.Speedup, out)
	}
	seeded := `{"allocs_per_op":15000,"note":"no-plan-cache baseline (BenchmarkServe_SweepSeedVaryNoPlanCache)","ns_per_op":1000}`
	if b := string(d.Results[0].Before); b != seeded {
		t.Errorf("seeded Cold before = %s, want %s", b, seeded)
	}

	frozen := json.RawMessage(`{"ns_per_op": 5581021.0, "allocs_per_op": 15819.0}`)
	d, out = run(400, frozen)
	if !strings.Contains(out, "WARNING: plan cache speedup 2.5x below the 3x target") {
		t.Errorf("2.5x did not warn:\n%s", out)
	}
	if *d.Speedup != 2.5 || string(d.Results[0].Before) != string(frozen) {
		t.Errorf("speedup %v, before %s: want 2.5 and the committed before", *d.Speedup, d.Results[0].Before)
	}
}

func TestGateOverhead(t *testing.T) {
	d := &doc{Results: parse(`BenchmarkGate_HitParallel 	 100	 40000 ns/op	 58 allocs/op
BenchmarkGate_HitParallel-4 	 100	 99000 ns/op	 54 allocs/op
BenchmarkServe_HitParallel 	 100	 1340 ns/op	 0 allocs/op
BenchmarkServe_HitParallel-4 	 100	 1363.5 ns/op	 0 allocs/op
`, true)}
	gateOverhead(d, nil)
	want := map[string]float64{"gate_overhead_ns-1": 38660, "gate_overhead_ns-4": 97636.5}
	if len(d.GateOverhead) != len(want) {
		t.Fatalf("gate_overhead = %v, want %v", d.GateOverhead, want)
	}
	for k, v := range want {
		if d.GateOverhead[k] != v {
			t.Errorf("%s = %v, want %v", k, d.GateOverhead[k], v)
		}
	}
}
