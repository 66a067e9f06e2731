// Package sim executes workflows on a modeled HPC system using discrete-
// event simulation. It is the substrate that replaces the paper's real runs
// on Perlmutter and Cori: tasks are phase programs (stage data externally,
// load from the file system, move bytes over PCIe/memory/network, compute,
// pay fixed control-flow overheads) executed against shared links with
// max-min fair contention and a finite node pool.
//
// The simulator produces the quantities the Workflow Roofline methodology
// consumes: the makespan, the achieved throughput, per-phase time breakdowns
// (Fig 5b, Fig 10b), and per-task spans for Gantt charts (Fig 7d).
package sim

import (
	"fmt"
	"math"

	"wroofline/internal/failure"
	"wroofline/internal/machine"
	"wroofline/internal/trace"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

// PhaseKind selects which resource a phase exercises.
type PhaseKind int

// Phase kinds.
const (
	// PhaseExternal moves Bytes (total for the task) over the shared
	// external/DTN link.
	PhaseExternal PhaseKind = iota
	// PhaseFS moves Bytes (total for the task) over the shared parallel
	// file system.
	PhaseFS
	// PhaseNetwork moves Bytes per node at the node NIC bandwidth.
	PhaseNetwork
	// PhasePCIe moves Bytes per node at the node PCIe bandwidth.
	PhasePCIe
	// PhaseMemory moves Bytes per node at the node memory bandwidth.
	PhaseMemory
	// PhaseCompute executes Flops per node at the node compute peak.
	PhaseCompute
	// PhaseFixed takes Seconds of wall time regardless of resources
	// (interpreter startup, bash, metadata handling).
	PhaseFixed
)

// String names the kind (also the default trace label).
func (k PhaseKind) String() string {
	switch k {
	case PhaseExternal:
		return "external"
	case PhaseFS:
		return "filesystem"
	case PhaseNetwork:
		return "network"
	case PhasePCIe:
		return "pcie"
	case PhaseMemory:
		return "memory"
	case PhaseCompute:
		return "compute"
	case PhaseFixed:
		return "fixed"
	default:
		return fmt.Sprintf("PhaseKind(%d)", int(k))
	}
}

// Phase is one sequential step of a task program.
type Phase struct {
	// Name labels the phase in traces; defaults to the kind name.
	Name string
	// Kind selects the resource.
	Kind PhaseKind
	// Bytes is the data volume: total task bytes for External/FS phases,
	// per-node bytes for Network/PCIe/Memory phases.
	Bytes units.Bytes
	// Flops is the per-node floating-point work for Compute phases.
	Flops units.Flops
	// Seconds is the duration of Fixed phases.
	Seconds float64
	// Efficiency is the achieved fraction of peak in (0, 1]; zero means 1.
	// It calibrates node phases to measured data (e.g. BGW runs at ~42% of
	// the node compute peak at 64 nodes).
	Efficiency float64
	// Background starts the phase and immediately proceeds to the next one;
	// the task completes only when every background phase has finished.
	// This models compute/communication overlap within a task (e.g. MPI
	// exchange hidden behind GPU kernels).
	Background bool
}

// label returns the trace label.
func (p Phase) label() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Kind.String()
}

// eff returns the efficiency with the zero default applied.
func (p Phase) eff() float64 {
	if p.Efficiency == 0 {
		return 1
	}
	return p.Efficiency
}

// validate checks the phase is well-formed.
func (p Phase) validate() error {
	if p.Efficiency < 0 || p.Efficiency > 1 {
		return fmt.Errorf("sim: phase %q efficiency %v outside (0,1]", p.label(), p.Efficiency)
	}
	switch p.Kind {
	case PhaseExternal, PhaseFS, PhaseNetwork, PhasePCIe, PhaseMemory:
		if p.Bytes < 0 || math.IsNaN(float64(p.Bytes)) || math.IsInf(float64(p.Bytes), 0) {
			return fmt.Errorf("sim: phase %q has invalid byte volume %v", p.label(), float64(p.Bytes))
		}
	case PhaseCompute:
		if p.Flops < 0 || math.IsNaN(float64(p.Flops)) || math.IsInf(float64(p.Flops), 0) {
			return fmt.Errorf("sim: phase %q has invalid flop count %v", p.label(), float64(p.Flops))
		}
	case PhaseFixed:
		if p.Seconds < 0 || math.IsNaN(p.Seconds) || math.IsInf(p.Seconds, 0) {
			return fmt.Errorf("sim: phase %q has invalid duration %v", p.label(), p.Seconds)
		}
	default:
		return fmt.Errorf("sim: phase %q has unknown kind %d", p.label(), int(p.Kind))
	}
	return nil
}

// Program is a task's sequential phase list.
type Program []Phase

// defaultPhases counts the phases of a work vector's default program, so
// Bind can carve every default program out of one exactly sized slab.
func defaultPhases(w *workflow.Work) int {
	n := 0
	for _, v := range [...]float64{float64(w.ExternalBytes), float64(w.FSBytes), float64(w.PCIeBytes),
		float64(w.MemBytes), float64(w.NetworkBytes), float64(w.Flops)} {
		if v > 0 {
			n++
		}
	}
	return n
}

// appendDefaultProgram appends the default program of a task's
// characterized work vector to p: external staging, file-system load, PCIe
// transfer, memory traffic, network exchange, then compute. Unused
// components produce no phases.
func appendDefaultProgram(p Program, w *workflow.Work) Program {
	if w.ExternalBytes > 0 {
		p = append(p, Phase{Kind: PhaseExternal, Bytes: w.ExternalBytes})
	}
	if w.FSBytes > 0 {
		p = append(p, Phase{Kind: PhaseFS, Bytes: w.FSBytes})
	}
	if w.PCIeBytes > 0 {
		p = append(p, Phase{Kind: PhasePCIe, Bytes: w.PCIeBytes})
	}
	if w.MemBytes > 0 {
		p = append(p, Phase{Kind: PhaseMemory, Bytes: w.MemBytes})
	}
	if w.NetworkBytes > 0 {
		p = append(p, Phase{Kind: PhaseNetwork, Bytes: w.NetworkBytes})
	}
	if w.Flops > 0 {
		p = append(p, Phase{Kind: PhaseCompute, Flops: w.Flops})
	}
	return p
}

// Config tunes a simulation run.
type Config struct {
	// Machine is the system model (required).
	Machine *machine.Machine
	// AvailableNodes overrides the partition node count (0 keeps it).
	AvailableNodes int
	// ExternalBW overrides the machine external bandwidth (0 keeps it).
	ExternalBW units.ByteRate
	// ExternalPerFlowCap caps each task's external transfer rate (LCLS
	// observes ~1 GB/s per stream on good days); 0 means uncapped.
	ExternalPerFlowCap units.ByteRate
	// FSPerFlowCap caps each task's file-system rate; 0 means uncapped.
	FSPerFlowCap units.ByteRate
	// MaxEvents guards against scheduling loops (default 10 million).
	MaxEvents uint64
	// Failures enables fault injection (task failures with retry/backoff,
	// node MTBF outages). Nil — or a disabled model — simulates a
	// failure-free system, bit-identical to a run without the field.
	Failures *failure.Model
}

// TaskResult is one task's execution window.
type TaskResult struct {
	// Start and End are virtual seconds.
	Start, End float64
}

// Duration returns End - Start.
func (t TaskResult) Duration() float64 { return t.End - t.Start }

// Result is a completed simulation.
type Result struct {
	// Makespan is the end-to-end virtual time (first start to last end).
	Makespan float64
	// Throughput is total tasks divided by makespan.
	Throughput float64
	// Tasks maps task id to its window.
	Tasks map[string]TaskResult
	// Recorder holds all phase spans for breakdowns and Gantt charts.
	Recorder *trace.Recorder
	// PeakNodesInUse is the allocation high-water mark.
	PeakNodesInUse int
	// Attempts maps task id to how many attempts it took (1 = no failure).
	Attempts map[string]int
	// Retries counts failed attempts across the run.
	Retries int
	// RetrySeconds sums the time lost to failures per phase label — the
	// doomed attempts' phase time plus "restage" and "backoff" — answering
	// "which resource did the retries hammer".
	RetrySeconds map[string]float64
	// NodeFailures counts node outages injected by the fault process.
	NodeFailures int
}

// RetryTotalSeconds sums RetrySeconds across labels.
func (r *Result) RetryTotalSeconds() float64 {
	total := 0.0
	for _, v := range r.RetrySeconds {
		total += v
	}
	return total
}

// DominantRetryLabel returns the phase label with the most retry seconds
// (ties broken by name), or "none" when the run had no retries — the label
// the failure-ensemble histogram aggregates.
func (r *Result) DominantRetryLabel() string { return dominantRetryLabel(r.RetrySeconds) }

// dominantRetryLabel implements DominantRetryLabel over a raw retry-seconds
// map so the batch executor shares the exact selection rule. The result does
// not depend on map iteration order: the maximum value wins, ties go to the
// lexicographically smallest label.
func dominantRetryLabel(m map[string]float64) string {
	best, bestV := "none", 0.0
	for label, v := range m {
		if v > bestV || (v == bestV && v > 0 && label < best) {
			best, bestV = label, v
		}
	}
	return best
}

// Breakdown returns total seconds per phase label.
func (r *Result) Breakdown() map[string]float64 { return r.Recorder.ByPhase() }

// Run executes the workflow and returns the result. Tasks without an entry
// in programs run the default program of their work vector. Programs for unknown task ids are an
// error. Run is the one-shot path: it compiles a Plan and executes a single
// default trial. Callers running many trials of the same workflow (Monte
// Carlo ensembles, what-if sweeps) should Compile once and call Plan.Run per
// trial.
func Run(wf *workflow.Workflow, programs map[string]Program, cfg Config) (*Result, error) {
	p, err := Compile(wf, programs, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(Trial{})
}

// stagedBytes sums the program's external and file-system payload — the
// volume a failed task must re-stage before retrying.
func stagedBytes(p Program) float64 {
	total := 0.0
	for _, ph := range p {
		if ph.Kind == PhaseExternal || ph.Kind == PhaseFS {
			total += float64(ph.Bytes)
		}
	}
	return total
}
