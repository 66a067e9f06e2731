// Archetypes example: survey the NERSC-style workflow shapes with the
// model and the simulator. For each archetype (bag-of-tasks, pipeline,
// fork-join, map-reduce, scatter-gather) with identical per-task work, it
// reports the structural width, the model bound at that width, the
// simulated throughput, and the binding resource — showing how pure
// structure moves a workflow around the roofline. Each archetype is a
// wfgen family: pipeline is chain, fork-join is fanout.
//
// Run with: go run ./examples/archetypes
package main

import (
	"fmt"
	"log"

	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/report"
	"wroofline/internal/sim"
	"wroofline/internal/wfgen"
)

func main() {
	pm := machine.Perlmutter()
	spec := wfgen.Spec{
		Partition:    machine.PartGPU,
		Width:        8,
		Depth:        3,
		NodesPerTask: 64,
		Flops:        "388 TFLOP", // 10 s per task at the node peak
		Mem:          "0",
		Net:          "0",
		FS:           "1 TB", // 0.18 s through the shared FS
	}

	tbl := report.NewTable("archetype survey (identical per-task work)",
		"shape", "tasks", "width", "CP len", "bound TPS @ width", "sim TPS", "sim makespan (s)", "limited by")
	for _, shape := range []struct{ name, family string }{
		{"bag-of-tasks", "bag"},
		{"pipeline", "chain"},
		{"fork-join", "fanout"},
		{"map-reduce", "mapreduce"},
		{"scatter-gather", "scatter"},
	} {
		s := spec
		s.Family = shape.family
		w, err := wfgen.Generate(&s)
		if err != nil {
			log.Fatal(err)
		}
		model, err := core.Build(pm, w, core.BuildOptions{})
		if err != nil {
			log.Fatal(err)
		}
		width, err := w.ParallelTasks()
		if err != nil {
			log.Fatal(err)
		}
		cpl, err := w.Graph().CriticalPathLength()
		if err != nil {
			log.Fatal(err)
		}
		bound, limit := model.Bound(float64(width))
		res, err := sim.Run(w, nil, sim.Config{Machine: pm})
		if err != nil {
			log.Fatal(err)
		}
		if err := tbl.AddRowf(shape.name, w.TotalTasks(), width, cpl,
			bound, res.Throughput, res.Makespan, limit.Resource.String()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(tbl.Text())
	fmt.Println("\nreading: width drives the attainable bound; depth (critical path)")
	fmt.Println("drives the makespan; the same per-task work lands in different")
	fmt.Println("regimes purely through workflow structure.")
}
