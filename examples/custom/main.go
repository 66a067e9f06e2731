// Custom example: the full toolkit on a user-defined workflow. Parses a
// workflow from the text description language, builds its roofline, runs
// the pipeline (per-level) analysis, evaluates what-if scenarios, and runs
// a Monte Carlo over external-bandwidth contention.
//
// Run with: go run ./examples/custom
package main

import (
	"context"
	"fmt"
	"log"

	"wroofline/internal/contention"
	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/pipeline"
	"wroofline/internal/sim"
	"wroofline/internal/sweep"
	"wroofline/internal/units"
	"wroofline/internal/wdl"
	"wroofline/internal/whatif"
)

// A beamline-style pipeline: four detectors stage data in from the
// instrument, a reducer merges, an archiver writes back out.
const description = `
workflow beamline on cpu
target makespan 30m
target throughput 0.005

task det0 nodes=4 external=500 GB fs=500 GB mem=16 GB
task det1 nodes=4 external=500 GB fs=500 GB mem=16 GB
task det2 nodes=4 external=500 GB fs=500 GB mem=16 GB
task det3 nodes=4 external=500 GB fs=500 GB mem=16 GB
task reduce nodes=8 fs=2 TB flops=5 TFLOP
task archive nodes=1 fs=200 GB

det0 det1 det2 det3 -> reduce
reduce -> archive
`

func main() {
	w, err := wdl.Parse(description)
	if err != nil {
		log.Fatal(err)
	}
	pm := machine.Perlmutter()

	// Roofline model and a simulated execution.
	model, err := core.Build(pm, w, core.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(w, nil, sim.Config{Machine: pm})
	if err != nil {
		log.Fatal(err)
	}
	p, err := w.ParallelTasks()
	if err != nil {
		log.Fatal(err)
	}
	pt, err := core.NewPoint("simulated", w.TotalTasks(), p, res.Makespan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(model.Report([]core.Point{pt}))
	fmt.Println()

	// Per-level pipeline analysis (which stage bottlenecks?).
	analysis, err := pipeline.Analyze(pm, w, 0)
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := analysis.Table("pipeline analysis")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tbl)
	fmt.Printf("bottleneck level: %d\n\n", analysis.BottleneckLevel)

	// What-if: which investment actually helps?
	outcomes, err := whatif.Evaluate(model, float64(p), []whatif.Perturbation{
		whatif.ScaleResource(core.ResCompute, 10),
		whatif.ScaleResource(core.ResExternal, 2),
		whatif.ScaleWall(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	wtbl, err := whatif.Table("what-if scenarios", outcomes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(wtbl)
	factor, speedup, err := whatif.UsefulImprovement(model, float64(p), core.ResExternal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("useful external-path improvement: %.3gx (then another ceiling binds); potential speedup %.3gx\n\n",
		factor, speedup)

	// Monte Carlo over contention: how does the makespan distribute when
	// the external path degrades stochastically?
	model2 := contention.TwoState{
		Base:     pm.ExternalBW,
		Degraded: pm.ExternalBW / 5,
		PBad:     0.3,
	}
	days, err := contention.MonteCarlo(context.Background(), 100, 2024, 1, 0, model2,
		func(days []units.ByteRate, out []float64) error {
			for i, rate := range days {
				day, err := sim.Run(w, nil, sim.Config{Machine: pm, ExternalBW: rate})
				if err != nil {
					return err
				}
				out[i] = day.Makespan
			}
			return nil
		}, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Summarize sorts days in place, so the deadline loop below reads
	// percentiles straight off the sorted makespans.
	dist, err := sweep.Summarize(days)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contention Monte Carlo over %d days: median %.0fs, p99 %.0fs, tail ratio %.2fx\n",
		dist.N, dist.P50, dist.P99, dist.TailRatio)
	deadline := w.Targets.MakespanSeconds
	missed := 0
	for pct := 1.0; pct <= 100; pct++ {
		if sweep.Quantile(days, pct) > deadline {
			missed++
		}
	}
	fmt.Printf("approximately %d%% of days miss the %.0fs deadline\n", missed, deadline)
}
