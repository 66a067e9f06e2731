// Benchmark harness: one benchmark per paper table and figure (DESIGN.md
// E1-E14), each regenerating the rows/series the paper reports, plus
// ablation benches for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute times are simulator times on this host; the shape claims (who
// wins, by what factor, where crossovers fall) are asserted by the unit and
// integration tests and echoed here via ReportMetric.
package wroofline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"wroofline/internal/breakdown"
	"wroofline/internal/calibrate"
	"wroofline/internal/contention"
	"wroofline/internal/core"
	"wroofline/internal/failure"
	"wroofline/internal/gantt"
	"wroofline/internal/machine"
	"wroofline/internal/pipeline"
	"wroofline/internal/plancache"
	"wroofline/internal/plot"
	"wroofline/internal/serve"
	"wroofline/internal/sim"
	"wroofline/internal/study"
	"wroofline/internal/sweep"
	"wroofline/internal/units"
	"wroofline/internal/wdl"
	"wroofline/internal/wfgen"
	"wroofline/internal/whatif"
	"wroofline/internal/workflow"
	"wroofline/internal/workloads"
)

// E1 — Fig 1: the Workflow Roofline model example on PM-GPU.
func BenchmarkFig1_ModelExample(b *testing.B) {
	var bound float64
	for i := 0; i < b.N; i++ {
		m, err := workloads.ExampleModel()
		if err != nil {
			b.Fatal(err)
		}
		bound, _ = m.BoundAtWall()
		if _, err := plot.RooflineSVG(m, nil, plot.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bound, "TPS-at-wall")
}

// E3 — Fig 4: the LCLS workflow skeleton (critical path 2, width 5).
func BenchmarkFig4_LCLSSkeleton(b *testing.B) {
	var width int
	for i := 0; i < b.N; i++ {
		cs, err := workloads.LCLSCori()
		if err != nil {
			b.Fatal(err)
		}
		width, err = cs.Workflow.ParallelTasks()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(width), "parallel-tasks")
}

// E4 — Fig 5a: LCLS roofline on Cori-HSW with the good/bad-day dots.
func BenchmarkFig5a_LCLSCoriRoofline(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		cs, err := workloads.LCLSCori()
		if err != nil {
			b.Fatal(err)
		}
		eff = cs.Model.Efficiency(cs.Points[0])
		if _, err := plot.RooflineSVG(cs.Model, cs.Points, plot.Options{ShowZones: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eff, "good-day-vs-bound")
}

// E5 — Fig 5b: the LCLS time breakdown regenerated by simulation.
func BenchmarkFig5b_LCLSBreakdown(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		bd := breakdown.New("Fig 5b", "loading", "analysis", "merge")
		for _, build := range []func() (*workloads.CaseStudy, error){
			workloads.LCLSCori, workloads.LCLSCoriBadDay,
		} {
			cs, err := build()
			if err != nil {
				b.Fatal(err)
			}
			res, err := cs.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			if err := bd.Add(cs.Name, res.Breakdown()); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		ratio, err = bd.Speedup("LCLS/Cori-HSW (bad day)", "LCLS/Cori-HSW")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ratio, "bad/good-makespan")
}

// E6 — Fig 6: LCLS on PM-CPU, ideal vs contended DTN.
func BenchmarkFig6_LCLSPerlmutter(b *testing.B) {
	var ideal, contended float64
	for i := 0; i < b.N; i++ {
		for _, sc := range []struct {
			build func() (*workloads.CaseStudy, error)
			out   *float64
		}{
			{workloads.LCLSPerlmutter, &ideal},
			{workloads.LCLSPerlmutterContended, &contended},
		} {
			cs, err := sc.build()
			if err != nil {
				b.Fatal(err)
			}
			res, err := cs.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			*sc.out = res.Makespan
		}
	}
	b.ReportMetric(ideal, "ideal-makespan-s")
	b.ReportMetric(contended, "contended-makespan-s")
}

// E7/E8 — Fig 7a/7b: BGW at 64 and 1024 nodes per task.
func benchmarkBGW(b *testing.B, scale int) {
	var makespan, eff float64
	for i := 0; i < b.N; i++ {
		cs, err := workloads.BGW(scale)
		if err != nil {
			b.Fatal(err)
		}
		res, err := cs.Simulate()
		if err != nil {
			b.Fatal(err)
		}
		makespan = res.Makespan
		eff, err = workloads.BGWEfficiency(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(makespan, "makespan-s")
	b.ReportMetric(100*eff, "pct-of-node-peak")
}

// E7 — Fig 7a.
func BenchmarkFig7a_BGW64(b *testing.B) { benchmarkBGW(b, 64) }

// E8 — Fig 7b.
func BenchmarkFig7b_BGW1024(b *testing.B) { benchmarkBGW(b, 1024) }

// E9 — Fig 7c: the per-task view.
func BenchmarkFig7c_BGWTaskView(b *testing.B) {
	var nPoints int
	for i := 0; i < b.N; i++ {
		m, points, err := workloads.BGWTaskView()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plot.RooflineSVG(m, points, plot.Options{}); err != nil {
			b.Fatal(err)
		}
		nPoints = len(points)
	}
	b.ReportMetric(float64(nPoints), "task-dots")
}

// E10 — Fig 7d: the Gantt chart; the critical path is scale-invariant.
func BenchmarkFig7d_BGWGantt(b *testing.B) {
	var cpLen int
	for i := 0; i < b.N; i++ {
		for _, scale := range []int{64, 1024} {
			cs, err := workloads.BGW(scale)
			if err != nil {
				b.Fatal(err)
			}
			res, err := cs.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			path, _, err := cs.Workflow.CriticalPathMeasured()
			if err != nil {
				b.Fatal(err)
			}
			ch, err := gantt.FromRecorder("Fig 7d", res.Recorder, path)
			if err != nil {
				b.Fatal(err)
			}
			cpLen = len(ch.CriticalPathBars())
		}
	}
	b.ReportMetric(float64(cpLen), "critical-path-tasks")
}

// E11 — Fig 8: the CosmoFlow instance sweep.
func BenchmarkFig8_CosmoFlow(b *testing.B) {
	var atWall float64
	for i := 0; i < b.N; i++ {
		sweep, err := workloads.CosmoFlowSweep(12)
		if err != nil {
			b.Fatal(err)
		}
		atWall = sweep[len(sweep)-1].TPS
	}
	b.ReportMetric(atWall, "epochs-per-s-at-12")
}

// E12 — Fig 9: the GPTune control-flow skeletons.
func BenchmarkFig9_GPTuneSkeletons(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		for _, mode := range []workloads.GPTuneMode{workloads.GPTuneRCI, workloads.GPTuneSpawn} {
			cs, err := workloads.GPTune(mode)
			if err != nil {
				b.Fatal(err)
			}
			p, err := cs.Workflow.ParallelTasks()
			if err != nil {
				b.Fatal(err)
			}
			total = cs.Workflow.TotalTasks() * p
		}
	}
	b.ReportMetric(float64(total), "tasks-x-width")
}

// E13 — Fig 10a: the GPTune roofline with RCI/Spawn/projected dots.
func BenchmarkFig10a_GPTuneRoofline(b *testing.B) {
	var spawnOverRCI float64
	for i := 0; i < b.N; i++ {
		cs, err := workloads.GPTune(workloads.GPTuneRCI)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plot.RooflineSVG(cs.Model, cs.Points, plot.Options{}); err != nil {
			b.Fatal(err)
		}
		spawnOverRCI = cs.Points[1].TPS / cs.Points[0].TPS
	}
	b.ReportMetric(spawnOverRCI, "spawn-over-rci")
}

// E14 — Fig 10b: the GPTune breakdown from simulation.
func BenchmarkFig10b_GPTuneBreakdown(b *testing.B) {
	var rci, spawn float64
	for i := 0; i < b.N; i++ {
		for _, sc := range []struct {
			mode workloads.GPTuneMode
			out  *float64
		}{
			{workloads.GPTuneRCI, &rci},
			{workloads.GPTuneSpawn, &spawn},
		} {
			cs, err := workloads.GPTune(sc.mode)
			if err != nil {
				b.Fatal(err)
			}
			res, err := cs.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			*sc.out = res.Makespan
		}
	}
	b.ReportMetric(rci, "rci-s")
	b.ReportMetric(spawn, "spawn-s")
}

// --- Ablation benches (DESIGN.md section 5) ---

// Ablation: fair-share links vs serialized-exclusive transfers on the LCLS
// loading phase. Fair sharing lets the five streams overlap; an exclusive
// link serializes them 5x.
func BenchmarkAblation_FairShareVsExclusive(b *testing.B) {
	cori := machine.CoriHaswell()
	build := func(perFlow units.ByteRate, capTotal units.ByteRate) float64 {
		w := workflow.New("lcls-load", machine.PartHaswell)
		for i := 0; i < 5; i++ {
			if err := w.AddTask(&workflow.Task{
				ID: fmt.Sprintf("t%d", i), Nodes: 32,
				Work: workflow.Work{ExternalBytes: 1 * units.TB},
			}); err != nil {
				b.Fatal(err)
			}
		}
		res, err := sim.Run(w, nil, sim.Config{
			Machine:            cori,
			ExternalBW:         capTotal,
			ExternalPerFlowCap: perFlow,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	}
	var fair, exclusive float64
	for i := 0; i < b.N; i++ {
		// Fair share: 5 GB/s aggregate, 1 GB/s per stream -> all overlap.
		fair = build(1*units.GBPS, 5*units.GBPS)
		// Exclusive-equivalent: the same aggregate with no per-flow cap
		// still fair-shares; a 1 GB/s total link approximates serialized
		// exclusive use of a single-stream path.
		exclusive = build(0, 1*units.GBPS)
	}
	b.ReportMetric(fair, "fair-makespan-s")
	b.ReportMetric(exclusive, "exclusive-makespan-s")
}

// Ablation: intra-task parallelism rescaling (Fig 2c) — doubling nodes per
// task halves the wall and doubles the node ceiling.
func BenchmarkAblation_IntraTaskScaling(b *testing.B) {
	m, err := workloads.ExampleModel()
	if err != nil {
		b.Fatal(err)
	}
	var wallBefore, wallAfter int
	for i := 0; i < b.N; i++ {
		scaled, err := m.ScaleIntraTask(2, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		wallBefore, wallAfter = m.Wall, scaled.Wall
	}
	b.ReportMetric(float64(wallBefore), "wall-1x")
	b.ReportMetric(float64(wallAfter), "wall-2x")
}

// Ablation: model evaluation cost — Bound() across the ceiling set sizes the
// four case studies use.
func BenchmarkAblation_BoundEvaluation(b *testing.B) {
	all := paperCases(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, cs := range all {
			v, _ := cs.Model.Bound(float64(i%64 + 1))
			sink += v
		}
	}
	_ = sink
}

// Throughput of the discrete-event core: the CosmoFlow 12-instance run is
// the heaviest simulation in the suite (about 1.5k spans).
func BenchmarkSim_CosmoFlow12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := workloads.CosmoFlow(12)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cs.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}

// Rendering throughput: the full Fig 5a SVG (zones, ceilings, points).
func BenchmarkPlot_RooflineSVG(b *testing.B) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plot.RooflineSVG(cs.Model, cs.Points, plot.Options{ShowZones: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// core.Build throughput on a JSON-shaped workflow (the generic API path).
func BenchmarkCore_Build(b *testing.B) {
	pm := machine.Perlmutter()
	w := workflow.New("bench", machine.PartGPU)
	for i := 0; i < 16; i++ {
		if err := w.AddTask(&workflow.Task{
			ID: fmt.Sprintf("t%02d", i), Nodes: 8,
			Work: workflow.Work{
				Flops:    10 * units.TFLOP,
				MemBytes: 100 * units.GB,
				FSBytes:  1 * units.TB,
			},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(pm, w, core.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension-module benches ---

// WDL parse+format round-trip throughput on the LCLS description.
func BenchmarkWDL_ParseFormat(b *testing.B) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		b.Fatal(err)
	}
	src, err := wdl.Format(cs.Workflow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := wdl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wdl.Format(w); err != nil {
			b.Fatal(err)
		}
	}
}

// Amdahl fit on the BGW strong-scaling points.
func BenchmarkCalibrate_FitScaling(b *testing.B) {
	obs := []calibrate.ScaleObs{
		{Nodes: 64, Seconds: workloads.BGWMeasured64},
		{Nodes: 1024, Seconds: workloads.BGWMeasured1024},
	}
	var serial float64
	for i := 0; i < b.N; i++ {
		fit, err := calibrate.FitScaling(obs)
		if err != nil {
			b.Fatal(err)
		}
		serial = fit.SerialFraction()
	}
	b.ReportMetric(serial, "serial-fraction")
}

// The architect question in one call: how much does 10x compute help LCLS
// vs improving the external path.
func BenchmarkWhatIf_LCLSInvestment(b *testing.B) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		b.Fatal(err)
	}
	var computeGain, externalFactor float64
	for i := 0; i < b.N; i++ {
		outcomes, err := whatif.Evaluate(cs.Model, 5, []whatif.Perturbation{
			whatif.ScaleResource(core.ResMemory, 10),
		})
		if err != nil {
			b.Fatal(err)
		}
		computeGain = outcomes[1].Speedup
		externalFactor, _, err = whatif.UsefulImprovement(cs.Model, 5, core.ResExternal)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(computeGain, "gain-10x-compute")
	b.ReportMetric(externalFactor, "useful-external-x")
}

// Monte Carlo day sampling over the LCLS simulation (50 days).
func BenchmarkContention_MonteCarloLCLS(b *testing.B) {
	model := contention.TwoState{
		Base:     units.ByteRate(workloads.LCLSGoodDayRate),
		Degraded: units.ByteRate(workloads.LCLSBadDayRate),
		PBad:     0.4,
	}
	var tail float64
	for i := 0; i < b.N; i++ {
		days, err := contention.MonteCarlo(context.Background(), 50, 7, 1, 0, model,
			func(days []units.ByteRate, out []float64) error {
				for j, rate := range days {
					cs, err := workloads.LCLSCori()
					if err != nil {
						return err
					}
					cs.SimConfig.ExternalBW = 5 * rate
					cs.SimConfig.ExternalPerFlowCap = rate
					res, err := cs.Simulate()
					if err != nil {
						return err
					}
					out[j] = res.Makespan
				}
				return nil
			}, nil)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sweep.Summarize(days)
		if err != nil {
			b.Fatal(err)
		}
		tail = s.TailRatio
	}
	b.ReportMetric(tail, "p99-over-p50")
}

// Per-level pipeline analysis of BGW (the paper's stated future-work item).
func BenchmarkPipeline_BGWLevels(b *testing.B) {
	cs, err := workloads.BGW(64)
	if err != nil {
		b.Fatal(err)
	}
	var eff float64
	for i := 0; i < b.N; i++ {
		a, err := pipeline.Analyze(cs.Machine, cs.Workflow, 0)
		if err != nil {
			b.Fatal(err)
		}
		eff = a.PipelineEfficiency()
	}
	b.ReportMetric(100*eff, "pipeline-eff-pct")
}

// Ablation: compute/communication overlap within a task (sim background
// phases) on a BGW-like task — overlap hides the full MPI exchange.
func BenchmarkAblation_CommOverlap(b *testing.B) {
	build := func(background bool) float64 {
		w := workflow.New("bgwlike", machine.PartGPU)
		if err := w.AddTask(&workflow.Task{ID: "t", Nodes: 64}); err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(w, map[string]sim.Program{
			"t": {
				{Kind: sim.PhaseNetwork, Bytes: 84 * units.GB, Background: background},
				{Kind: sim.PhaseCompute, Flops: 18.19 * units.PFLOP, Efficiency: 0.42},
			},
		}, sim.Config{Machine: machine.Perlmutter()})
		if err != nil {
			b.Fatal(err)
		}
		return res.Makespan
	}
	var sequential, overlapped float64
	for i := 0; i < b.N; i++ {
		sequential = build(false)
		overlapped = build(true)
	}
	b.ReportMetric(sequential, "sequential-s")
	b.ReportMetric(overlapped, "overlapped-s")
}

// E15 — Fig 2a-2c and Fig 3a-3b: the interpretation panels.
func BenchmarkFig2and3_Interpretation(b *testing.B) {
	var rendered int
	for i := 0; i < b.N; i++ {
		figs, err := workloads.InterpretationFigures()
		if err != nil {
			b.Fatal(err)
		}
		rendered = 0
		for _, f := range figs {
			if _, err := plot.RooflineSVG(f.Model, f.Points, plot.Options{
				ShowZones:       f.ShowZones,
				ShadeBoundClass: f.ShadeBoundClass,
			}); err != nil {
				b.Fatal(err)
			}
			rendered++
		}
	}
	b.ReportMetric(float64(rendered), "panels")
}

// Stress: 1000 staggered flows on one fair-share link — the discrete-event
// core's heaviest contention pattern.
func BenchmarkSim_LinkStress1000Flows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workflow.New("stress", machine.PartGPU)
		progs := map[string]sim.Program{}
		for j := 0; j < 1000; j++ {
			id := fmt.Sprintf("t%04d", j)
			if err := w.AddTask(&workflow.Task{ID: id, Nodes: 1}); err != nil {
				b.Fatal(err)
			}
			progs[id] = sim.Program{
				{Kind: sim.PhaseFixed, Seconds: float64(j%10) / 10, Name: "stagger"},
				{Kind: sim.PhaseFS, Bytes: units.Bytes(1+j%7) * units.GB},
			}
		}
		res, err := sim.Run(w, progs, sim.Config{Machine: machine.Perlmutter()})
		if err != nil {
			b.Fatal(err)
		}
		if res.Makespan <= 0 {
			b.Fatal("zero makespan")
		}
	}
}

// Ablation: CosmoFlow with per-epoch dataset reloads vs the cached-input
// default — the FS ceiling of Fig 8 becomes binding when every epoch pays
// the 2 TB load.
func BenchmarkAblation_CosmoFSCaching(b *testing.B) {
	pm := machine.Perlmutter()
	build := func(reloadEveryEpoch bool) float64 {
		w := workflow.New("cosmo-ablate", machine.PartGPU)
		progs := map[string]sim.Program{}
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("inst%02d", i)
			if err := w.AddTask(&workflow.Task{ID: id, Nodes: 128}); err != nil {
				b.Fatal(err)
			}
			var prog sim.Program
			if !reloadEveryEpoch {
				prog = append(prog, sim.Phase{Kind: sim.PhaseFS, Bytes: workloads.CosmoDatasetBytes})
			}
			for e := 0; e < workloads.CosmoEpochsPerInstance; e++ {
				if reloadEveryEpoch {
					prog = append(prog, sim.Phase{Kind: sim.PhaseFS, Bytes: workloads.CosmoDatasetBytes})
				}
				prog = append(prog,
					sim.Phase{Kind: sim.PhasePCIe, Bytes: workloads.CosmoDecompressedBytes / 128},
					sim.Phase{Kind: sim.PhaseMemory, Bytes: workloads.CosmoHBMBytesPerNodePerEpoch(), Efficiency: 0.85},
				)
			}
			progs[id] = prog
		}
		res, err := sim.Run(w, progs, sim.Config{Machine: pm, AvailableNodes: workloads.CosmoAvailableNodes})
		if err != nil {
			b.Fatal(err)
		}
		return float64(12*workloads.CosmoEpochsPerInstance) / res.Makespan
	}
	var cached, reloading float64
	for i := 0; i < b.N; i++ {
		cached = build(false)
		reloading = build(true)
	}
	b.ReportMetric(cached, "cached-eps-per-s")
	b.ReportMetric(reloading, "reload-eps-per-s")
}

// Sweep-engine benchmarks: the same ensemble at worker counts 1, 4, and
// GOMAXPROCS. Determinism is asserted by the sweep/contention/whatif tests;
// here the sub-benchmark ns/op ratio is the parallel speedup (compare
// workers=1 against workers=N; on a multi-core host the 10k-trial Monte
// Carlo ensemble should clear 2x at 4+ cores).
func sweepWorkerCounts() []int {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func BenchmarkSweep_MonteCarlo(b *testing.B) {
	model := contention.TwoState{
		Base:     units.ByteRate(workloads.LCLSGoodDayRate),
		Degraded: units.ByteRate(workloads.LCLSBadDayRate),
		PBad:     0.4,
	}
	cs, err := workloads.LCLSCori()
	if err != nil {
		b.Fatal(err)
	}
	// Chunked evaluation through the batch executor, exactly how
	// study.runMonteCarlo drives the ensemble: each chunk of sampled days
	// becomes one RunBatch call on a reused scratch. The plan's trial memo
	// persists across RunBatch calls, so each iteration compiles a fresh
	// plan outside the timer: the two-state sampler then simulates each
	// rate once per ensemble (once per racing worker at worst) and every
	// other trial is a memo lookup, rather than every trial a warm hit.
	const trials = 10000
	var plan *sim.Plan
	runChunk := func(days []units.ByteRate, out []float64) error {
		ts := make([]sim.Trial, len(days))
		brs := make([]sim.BatchResult, len(days))
		for i, rate := range days {
			ts[i] = sim.Trial{
				OverrideExternal:   true,
				ExternalBW:         5 * rate,
				ExternalPerFlowCap: rate,
			}
		}
		if err := plan.RunBatch(ts, brs); err != nil {
			return err
		}
		for i := range brs {
			out[i] = brs[i].Makespan
		}
		return nil
	}
	for _, workers := range sweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var tail float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if plan, err = cs.Compile(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				days, err := contention.MonteCarlo(context.Background(),
					trials, 7, workers, 0, model, runChunk, nil)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sweep.Summarize(days)
				if err != nil {
					b.Fatal(err)
				}
				tail = s.TailRatio
			}
			b.ReportMetric(tail, "p99-over-p50")
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

func BenchmarkSweep_WhatIfGrid(b *testing.B) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		b.Fatal(err)
	}
	g := whatif.Grid{
		Resources: []whatif.ResourceAxis{
			{Resource: core.ResExternal, Factors: []float64{1, 2, 4, 8, 16}},
			{Resource: core.ResFileSystem, Factors: []float64{1, 2, 4, 8}},
			{Resource: core.ResMemory, Factors: []float64{1, 2, 4}},
		},
		WallFactors: []float64{0.5, 1, 2, 4},
		IntraTask:   []whatif.IntraTaskOption{{K: 1}, {K: 2, Efficiency: 0.9}},
	}
	for _, workers := range sweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var cells int
			for i := 0; i < b.N; i++ {
				out, err := whatif.EvaluateGrid(context.Background(),
					cs.Model, float64(cs.Model.Wall), g, workers)
				if err != nil {
					b.Fatal(err)
				}
				cells = len(out)
			}
			b.ReportMetric(float64(cells), "scenarios")
		})
	}
}

// --- Analysis-service benches ---

// serveBench drives the wfserved handler in-process (no TCP) so the
// cold-vs-cached ratio measures the cache, not the network stack. The
// request is rebuilt from a fixed template and the recorder preallocated,
// keeping harness overhead identical (and small) on both paths.
type serveBench struct {
	s   *serve.Server
	req *http.Request
	buf []byte
}

func newServeBench(s *serve.Server, body string) *serveBench {
	return &serveBench{
		s:   s,
		req: httptest.NewRequest("POST", "/v1/model", strings.NewReader(body)),
		buf: make([]byte, 0, 64<<10),
	}
}

func (sb *serveBench) do(b *testing.B, body string) {
	sb.req.Body = io.NopCloser(strings.NewReader(body))
	rec := httptest.NewRecorder()
	rec.Body = bytes.NewBuffer(sb.buf)
	sb.s.Handler().ServeHTTP(rec, sb.req)
	if rec.Code != 200 {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// Cold path: every iteration re-evaluates the Fig 1 example model (the
// cache is flushed each time). Compare against BenchmarkServe_ModelCached —
// the ratio is the value of content-addressed caching; the acceptance floor
// is 10x.
func BenchmarkServe_ModelCold(b *testing.B) {
	s := serve.New(serve.Config{})
	const body = `{"case":"example"}`
	sb := newServeBench(s, body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FlushCache()
		sb.do(b, body)
	}
}

// Cold sweep path: every iteration re-runs a small failure ensemble through
// the full service stack (spec parse, canonical hash, 8 simulations, table
// render). Unlike BenchmarkServe_ModelCold — which is analytic and never
// touches the simulator — this is the endpoint the simulator hot path
// dominates, so it tracks the link/engine/plan overhaul directly.
func BenchmarkServe_SweepFailuresCold(b *testing.B) {
	s := serve.New(serve.Config{})
	const body = `{"kind":"failures","case":"lcls-cori","trials":8,"seed":7,` +
		`"failure":{"task_fail_prob":0.05,"restage_rate":"1 GB/s",` +
		`"retry":{"max_attempts":5,"backoff_seconds":1,"backoff_factor":2}}}`
	sb := newServeBench(s, body)
	sb.req = httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FlushCache()
		sb.do(b, body)
	}
}

// Cached path: the first request primes the cache, every iteration after is
// a content-addressed hit serving the identical bytes.
func BenchmarkServe_ModelCached(b *testing.B) {
	s := serve.New(serve.Config{})
	const body = `{"case":"example"}`
	sb := newServeBench(s, body)
	sb.do(b, body) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.do(b, body)
	}
}

// The PR-4 scaling target: a 10,000-task wide workflow — every task stages
// over the shared FS link, the heaviest contention pattern — swept across a
// small failure ensemble. The dominant costs are the shared-link event core
// (rate-bucketed sharing) and the per-trial setup (compiled plans).
func BenchmarkSweep_Wide10kTasks(b *testing.B) {
	const tasks = 10_000
	const trials = 4
	buildWorkflow := func() (*workflow.Workflow, map[string]sim.Program) {
		w := workflow.New("wide10k", machine.PartGPU)
		progs := make(map[string]sim.Program, tasks)
		for j := 0; j < tasks; j++ {
			id := fmt.Sprintf("t%05d", j)
			if err := w.AddTask(&workflow.Task{ID: id, Nodes: 1}); err != nil {
				b.Fatal(err)
			}
			progs[id] = sim.Program{
				{Kind: sim.PhaseFixed, Seconds: float64(j%100) / 100, Name: "stagger"},
				{Kind: sim.PhaseFS, Bytes: units.Bytes(1+j%7) * units.GB},
			}
		}
		return w, progs
	}
	fspec := failure.Spec{
		TaskFailProb: 0.02,
		RestageRate:  "10 GB/s",
		Retry:        &failure.RetrySpec{MaxAttempts: 5, BackoffSeconds: 1, BackoffFactor: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		// One compile per sweep (the part trials used to redo), shared by
		// every trial in the ensemble.
		w, progs := buildWorkflow()
		plan, err := sim.Compile(w, progs, sim.Config{Machine: machine.Perlmutter()})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sweep.Map(context.Background(), trials, 0,
			func(_ context.Context, trial int) (float64, error) {
				fs := fspec
				fs.Seed = sweep.TrialSeed(7, trial)
				fm, err := fs.Compile()
				if err != nil {
					return 0, err
				}
				res, err := plan.Run(sim.Trial{Failures: fm})
				if err != nil {
					return 0, err
				}
				return res.Makespan, nil
			})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range out {
			sum += v
		}
	}
	b.ReportMetric(sum/float64(b.N*trials), "mean-makespan-s")
}

// The archetype shape survey over a 5-width x 3-depth grid (75 cells), run
// through study.RunStreamCached: one model build, then one closed-form
// wfgen shape per cell. Workers never change the bytes.
func BenchmarkSweep_ShapeSurvey(b *testing.B) {
	for _, workers := range sweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := &study.Spec{
				Kind: "survey", Machine: "perlmutter", Partition: machine.PartCPU,
				Widths: []int{2, 4, 8, 16, 32}, Depths: []int{2, 3, 4}, NodesPerTask: 2,
				Work: &study.WorkSpec{Flops: "5 TFLOP", FS: "100 GB"}, Workers: workers,
			}
			var points int
			for i := 0; i < b.N; i++ {
				out, err := study.RunStreamCached(context.Background(), spec, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				points = out[0].NumRows()
			}
			b.ReportMetric(float64(points), "points")
		})
	}
}

// The explore workload's corpus request: ten fresh-seed CV 0.4 scenarios
// with 1 GB payloads on the NUMA machine, run the way the service runs it
// — through study.RunStreamCached over a server-sized plan cache. Every
// iteration takes a new seed, so each scenario misses its plan-cache entry
// and is drawn, bounded, bound and simulated; the family shapes stay warm
// in the cache after the first request.
func BenchmarkStudy_CorpusExplore(b *testing.B) {
	plans := plancache.New(512, 16)
	spec := func(seed uint64) *study.Spec {
		return &study.Spec{Kind: "corpus", Machine: "perlmutter-numa", Count: 10, Seed: seed, Workers: 1,
			Template: &wfgen.Spec{Width: 6, Depth: 3, CV: 0.4, Payload: "1 GB"}}
	}
	if _, err := study.RunStreamCached(context.Background(), spec(0), plans, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.RunStreamCached(context.Background(), spec(uint64(i+1)), plans, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The explore workload's failure request: a 600-trial ensemble on
// lcls-cori with a 2% task failure probability and restaging, through
// study.RunStreamCached over a server-sized plan cache. Every iteration
// takes a new seed, so the plan is a cache hit and the trials whose tasks
// draw a fault run the event loop (the rest are screened fault-free).
func BenchmarkStudy_FailuresExplore(b *testing.B) {
	plans := plancache.New(512, 16)
	spec := func(seed uint64) *study.Spec {
		return &study.Spec{Kind: "failures", Case: "lcls-cori", Trials: 600, Seed: seed, Workers: 1,
			Failure: &failure.Spec{TaskFailProb: 0.02, RestageRate: "1 GB/s"}}
	}
	if _, err := study.RunStreamCached(context.Background(), spec(0), plans, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.RunStreamCached(context.Background(), spec(uint64(i+1)), plans, nil); err != nil {
			b.Fatal(err)
		}
	}
}
