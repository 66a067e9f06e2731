// Package core implements the Workflow Roofline model from "A Workflow
// Roofline Model for End-to-End Workflow Performance Analysis" (SC24).
//
// The model bounds a workflow's throughput, in tasks per second (TPS), as a
// function of its number of parallel tasks p:
//
//	TPS(p) <= min over ceilings c of  p / T_c        (node-scoped, diagonal)
//	TPS(p) <= min over ceilings c of  Peak_c / W_c   (system-scoped, horizontal)
//	p      <= parallelism wall = floor(nodes_avail / nodes_per_task)
//
// where T_c = per-task work / per-node peak for node ceilings and W_c is the
// per-task volume through a shared system resource with aggregate peak
// Peak_c (Eq. (1) of the paper). Node ceilings are diagonal lines of slope 1
// in log-log space; system ceilings are horizontal because the shared
// resource does not grow with p.
//
// Beyond the bound itself, the package provides the paper's interpretation
// machinery: empirical points (Section III-B), the four-zone target
// classification of Fig 2a, the node-bound/system-bound split of Fig 3, the
// intra-task-parallelism rescaling of Fig 2c, and an optimization advisor
// that produces the directions discussed in Section III-C.
package core

import (
	"fmt"
	"math"
	"strings"

	"wroofline/internal/machine"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

// Scope distinguishes how a ceiling scales with the number of parallel
// tasks.
type Scope int

const (
	// ScopeNode marks per-node resources (compute, memory, PCIe): adding a
	// parallel task adds nodes, so attainable TPS grows linearly with p and
	// the ceiling is a diagonal in log-log space.
	ScopeNode Scope = iota
	// ScopeSystem marks shared system resources (file system, network
	// fabric, external/DTN links): the aggregate peak is fixed, so the
	// ceiling is horizontal.
	ScopeSystem
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case ScopeNode:
		return "node"
	case ScopeSystem:
		return "system"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Resource identifies which physical resource a ceiling models.
type Resource int

// Resources in the order the paper discusses them.
const (
	ResCompute    Resource = iota // node FLOPS
	ResMemory                     // node DRAM/HBM bandwidth
	ResPCIe                       // node host<->device bandwidth
	ResNetwork                    // interconnect / MPI bytes
	ResFileSystem                 // shared parallel file system
	ResExternal                   // external staging (DTN / WAN)
	ResOverhead                   // serialized control-flow overhead (e.g. Python, bash)
	ResBisection                  // fabric bisection bandwidth (Ridgeline's second network dimension)
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case ResCompute:
		return "compute"
	case ResMemory:
		return "memory"
	case ResPCIe:
		return "pcie"
	case ResNetwork:
		return "network"
	case ResFileSystem:
		return "filesystem"
	case ResExternal:
		return "external"
	case ResOverhead:
		return "overhead"
	case ResBisection:
		return "bisection"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// Ceiling is one attainable-performance bound. TimePerTask is the seconds a
// single task spends on this resource at peak; for node-scoped ceilings the
// attainable TPS at p parallel tasks is p/TimePerTask, for system-scoped
// ceilings it is 1/TimePerTask independent of p.
type Ceiling struct {
	// Name is the display label, e.g. "File System: loading 70 GB @ 5.6 TB/s".
	Name string
	// Resource identifies the underlying resource.
	Resource Resource
	// Scope determines diagonal (node) vs horizontal (system) behaviour.
	Scope Scope
	// TimePerTask is the per-task time at peak on this resource, seconds.
	TimePerTask float64
	// Scenario marks an alternative what-if ceiling (e.g. the "5x
	// contention" line the paper overlays in Fig 5a and Fig 6). Scenario
	// ceilings are plotted but excluded from Bound and classification.
	Scenario bool
}

// TPSAt returns the attainable tasks-per-second this ceiling allows at p
// parallel tasks. A zero TimePerTask means the resource is unused and the
// ceiling is +Inf.
func (c Ceiling) TPSAt(p float64) float64 {
	if c.TimePerTask <= 0 {
		return math.Inf(1)
	}
	if c.Scope == ScopeNode {
		return p / c.TimePerTask
	}
	return 1 / c.TimePerTask
}

// String renders "name (scope, T=...s)".
func (c Ceiling) String() string {
	return fmt.Sprintf("%s (%s, T=%.4gs)", c.Name, c.Scope, c.TimePerTask)
}

// Model is a Workflow Roofline: a set of ceilings plus the system
// parallelism wall and optional targets.
type Model struct {
	// Title labels the model, e.g. "LCLS on Cori-HSW".
	Title string
	// Ceilings is the bound set; order is presentation order.
	Ceilings []Ceiling
	// Wall is the system parallelism wall in tasks (vertical bound).
	Wall int
	// Targets optionally holds the makespan/throughput goals converted into
	// model terms (see SetTargets).
	Targets *TargetLines
}

// TargetLines are the dotted goal lines of Fig 2a: a throughput floor
// (horizontal) and a makespan deadline, which for a workflow with a fixed
// total task count is also a horizontal TPS line at totalTasks/deadline.
type TargetLines struct {
	// ThroughputTPS is the target tasks-per-second; 0 when unset.
	ThroughputTPS float64
	// MakespanSeconds is the deadline; 0 when unset.
	MakespanSeconds float64
	// TotalTasks converts the deadline into a TPS line.
	TotalTasks int
}

// MakespanTPS returns the TPS equivalent of finishing TotalTasks within the
// deadline, or 0 when no deadline is set.
func (t *TargetLines) MakespanTPS() float64 {
	if t == nil || t.MakespanSeconds <= 0 || t.TotalTasks <= 0 {
		return 0
	}
	return float64(t.TotalTasks) / t.MakespanSeconds
}

// AddCeiling appends a bound, skipping unused (zero-time) resources.
func (m *Model) AddCeiling(c Ceiling) {
	if c.TimePerTask <= 0 {
		return
	}
	m.Ceilings = append(m.Ceilings, c)
}

// Validate checks the model has at least one ceiling and a positive wall.
func (m *Model) Validate() error {
	if len(m.Ceilings) == 0 {
		return fmt.Errorf("core: model %q has no ceilings", m.Title)
	}
	if m.Wall < 1 {
		return fmt.Errorf("core: model %q has wall %d, need >= 1", m.Title, m.Wall)
	}
	for _, c := range m.Ceilings {
		if c.TimePerTask <= 0 || invalidTime(c.TimePerTask) {
			return fmt.Errorf("core: model %q ceiling %q has invalid time %v", m.Title, c.Name, c.TimePerTask)
		}
	}
	return nil
}

// invalidTime reports a ceiling time no bound can use.
func invalidTime(t float64) bool { return math.IsNaN(t) || math.IsInf(t, 0) }

// Bound evaluates Eq. (1): the attainable TPS at p parallel tasks and the
// ceiling that limits it. p is clipped at the wall first (the region beyond
// the wall is unattainable), and the trivial bound TPS <= p/0s never
// applies — with no ceilings the bound is +Inf.
func (m *Model) Bound(p float64) (tps float64, limit Ceiling) {
	if p <= 0 {
		return 0, Ceiling{}
	}
	if wall := float64(m.Wall); m.Wall > 0 && p > wall {
		p = wall
	}
	tps = math.Inf(1)
	for _, c := range m.Ceilings {
		if c.Scenario {
			continue
		}
		if v := c.TPSAt(p); v < tps {
			tps, limit = v, c
		}
	}
	return tps, limit
}

// BoundAtWall returns the attainable TPS at the parallelism wall — the best
// throughput the system allows for this workflow.
func (m *Model) BoundAtWall() (float64, Ceiling) {
	return m.Bound(float64(m.Wall))
}

// SetTargets installs target lines from workflow targets.
func (m *Model) SetTargets(t workflow.Targets, totalTasks int) {
	if t.MakespanSeconds <= 0 && t.ThroughputTPS <= 0 {
		m.Targets = nil
		return
	}
	m.Targets = &TargetLines{
		ThroughputTPS:   t.ThroughputTPS,
		MakespanSeconds: t.MakespanSeconds,
		TotalTasks:      totalTasks,
	}
}

// ScaleIntraTask models Fig 2c: multiplying each task's intra-task
// parallelism (nodes per task) by k > 0 with perfect scalability moves the
// wall left by k (fewer concurrent tasks fit) and node ceilings up by k
// (per-node work drops by k, so per-task time at peak drops by k). A
// fractional k coarsens instead: wider walls, slower tasks — the inverse
// transform, so scaling by k then 1/k at perfect efficiency is the identity
// whenever k divides the wall evenly.
// System-scoped ceilings are unchanged: the same bytes cross the same shared
// resource. The receiver is not mutated. efficiency in (0,1] models
// imperfect strong scaling of the node phases: time scales by 1/(k*eff).
func (m *Model) ScaleIntraTask(k float64, efficiency float64) (*Model, error) {
	if k <= 0 || math.IsInf(k, 0) || math.IsNaN(k) {
		return nil, fmt.Errorf("core: intra-task scale factor must be a positive finite number, got %v", k)
	}
	if efficiency <= 0 || efficiency > 1 {
		return nil, fmt.Errorf("core: efficiency must be in (0,1], got %v", efficiency)
	}
	out := &Model{
		Title:   m.Title + fmt.Sprintf(" (intra-task x%g)", k),
		Wall:    int(math.Max(1, math.Floor(float64(m.Wall)/k))),
		Targets: m.Targets,
	}
	for _, c := range m.Ceilings {
		nc := c
		if c.Scope == ScopeNode {
			nc.TimePerTask = c.TimePerTask / (k * efficiency)
		}
		out.Ceilings = append(out.Ceilings, nc)
	}
	return out, nil
}

// Point is an empirical workflow observation placed on the roofline.
type Point struct {
	// Label names the observation, e.g. "Good Days" or "Spawn".
	Label string
	// ParallelTasks is the x coordinate.
	ParallelTasks float64
	// TPS is the y coordinate (achieved tasks per second).
	TPS float64
	// MakespanSeconds is the observed end-to-end time (informational).
	MakespanSeconds float64
	// TotalTasks is the number of tasks completed in the makespan.
	TotalTasks int
}

// NewPoint builds an empirical point from the quantities the paper's
// methodology collects: total task count, observed makespan, and the number
// of parallel tasks from the workflow description.
func NewPoint(label string, totalTasks int, parallelTasks int, makespanSeconds float64) (Point, error) {
	if totalTasks <= 0 {
		return Point{}, fmt.Errorf("core: point %q needs a positive task count, got %d", label, totalTasks)
	}
	if parallelTasks <= 0 {
		return Point{}, fmt.Errorf("core: point %q needs positive parallel tasks, got %d", label, parallelTasks)
	}
	if makespanSeconds <= 0 {
		return Point{}, fmt.Errorf("core: point %q needs a positive makespan, got %v", label, makespanSeconds)
	}
	return Point{
		Label:           label,
		ParallelTasks:   float64(parallelTasks),
		TPS:             float64(totalTasks) / makespanSeconds,
		MakespanSeconds: makespanSeconds,
		TotalTasks:      totalTasks,
	}, nil
}

// Efficiency returns achieved TPS over attainable TPS at the point's x
// coordinate — e.g. BGW's "42% of node peak" annotation in Fig 7a.
func (m *Model) Efficiency(pt Point) float64 {
	bound, _ := m.Bound(pt.ParallelTasks)
	if math.IsInf(bound, 1) || bound <= 0 {
		return 0
	}
	return pt.TPS / bound
}

// Headroom returns the multiplicative speedup still available at the
// point's x coordinate (attainable/achieved), e.g. GPTune's "12x" arrow.
func (m *Model) Headroom(pt Point) float64 {
	e := m.Efficiency(pt)
	if e <= 0 {
		return math.Inf(1)
	}
	return 1 / e
}

// String summarizes the model.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workflow Roofline: %s\n", m.Title)
	fmt.Fprintf(&b, "  parallelism wall: %d tasks\n", m.Wall)
	for _, c := range m.Ceilings {
		fmt.Fprintf(&b, "  ceiling: %s\n", c)
	}
	if m.Targets != nil {
		if m.Targets.MakespanSeconds > 0 {
			fmt.Fprintf(&b, "  target makespan: %.4gs (TPS %.4g)\n",
				m.Targets.MakespanSeconds, m.Targets.MakespanTPS())
		}
		if m.Targets.ThroughputTPS > 0 {
			fmt.Fprintf(&b, "  target throughput: %.4g TPS\n", m.Targets.ThroughputTPS)
		}
	}
	return b.String()
}

// BuildOptions tunes automatic model construction.
type BuildOptions struct {
	// AvailableNodes overrides the partition node count used for the wall
	// (e.g. CosmoFlow excludes 256 large-memory nodes: 1536 of 1792).
	AvailableNodes int
	// ExternalBW overrides the machine's external bandwidth (contention
	// scenarios). Zero keeps the machine value.
	ExternalBW units.ByteRate
	// OverheadSeconds adds a serialized per-task overhead ceiling (GPTune's
	// Python/bash time). Zero adds none.
	OverheadSeconds float64
	// OverheadName labels the overhead ceiling.
	OverheadName string
}

// Build derives a Workflow Roofline model from a machine and a workflow,
// following Section III-A/III-B: node ceilings from per-node work over
// per-node peaks, system ceilings from per-task shared-resource volumes
// over aggregate peaks, and the wall from node counts.
func Build(m *machine.Machine, w *workflow.Workflow, opts BuildOptions) (*Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pk, err := m.Peaks(w.Partition, opts.ExternalBW)
	if err != nil {
		return nil, err
	}
	wall, loads, err := ceilingLoads(&pk, w.Name, w.MaxWorkPerTask(), w.MaxTaskNodes(), opts.AvailableNodes)
	if err != nil {
		return nil, err
	}
	model := &Model{
		Title: w.Name + " on " + pk.Machine + "/" + pk.Partition,
		Wall:  wall,
	}
	for _, c := range ceilingOrder {
		l := loads[c.res]
		if l.Time <= 0 {
			continue // AddCeiling would skip it unnamed
		}
		model.AddCeiling(Ceiling{
			Name:        ceilingName(c.res, l),
			Resource:    c.res,
			Scope:       c.scope,
			TimePerTask: l.Time,
		})
	}
	if opts.OverheadSeconds > 0 {
		name := opts.OverheadName
		if name == "" {
			name = "Control-flow overhead"
		}
		model.AddCeiling(Ceiling{
			Name:        fmt.Sprintf("%s: %.4gs/task", name, opts.OverheadSeconds),
			Resource:    ResOverhead,
			Scope:       ScopeNode,
			TimePerTask: opts.OverheadSeconds,
		})
	}
	model.SetTargets(w.Targets, w.TotalTasks())
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

// WallBound is what Build(...).BoundAtWall() returns — the bound at the
// parallelism wall and the resource of the ceiling that sets it — for a
// workflow on the partition of pk, resolved from a valid machine with no
// external override, whose component-wise maximum work vector is work and
// whose widest task needs maxTaskNodes nodes, with default build options.
// It runs Build's ceiling arithmetic, breaks ties in Build's ceiling order,
// and names no ceiling. It fails whenever Build would; its error messages
// name no workflow or ceiling.
func WallBound(pk *machine.Peaks, work workflow.Work, maxTaskNodes int) (float64, Resource, error) {
	wall, loads, err := ceilingLoads(pk, "", work, maxTaskNodes, 0)
	if err != nil {
		return 0, 0, err
	}
	// Model.Validate and Model.Bound over unnamed ceilings, without a Model:
	// one holding the ceilings would escape through Validate's error path.
	p := float64(wall)
	tps, limit, n := math.Inf(1), Resource(0), 0
	for _, c := range ceilingOrder {
		l := loads[c.res]
		if l.Time <= 0 {
			continue
		}
		if invalidTime(l.Time) {
			return 0, 0, fmt.Errorf("core: %s ceiling has invalid time %v", c.res, l.Time)
		}
		n++
		cl := Ceiling{Scope: c.scope, TimePerTask: l.Time}
		if v := cl.TPSAt(p); v < tps {
			tps, limit = v, c.res
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("core: workflow has no ceilings")
	}
	return tps, limit, nil
}

// Load is one resource's share of a task: the volume the task computes or
// moves on it, the peak it goes at, and the time at peak.
type Load struct{ Vol, Peak, Time float64 }

// Loads holds a task's Load on every resource, indexed by Resource.
// ResOverhead's entry is always zero: overhead is not work at a peak.
type Loads [ResBisection + 1]Load

// TaskLoads is Eq. (1)'s per-task arithmetic: the load work puts on each
// resource of pk for a task spread over nodes nodes. Compute, memory, PCIe
// and network work is per node; file-system and external volumes are the
// task's; the bisection volume is the task's injected bytes across all its
// nodes, of which machine.BisectionShare crosses the cut. Work on a
// resource with no peak is a *machine.NoPeakError naming the workflow name.
func TaskLoads(name string, work workflow.Work, nodes int, pk *machine.Peaks) (Loads, error) {
	l := Loads{
		ResCompute:    {float64(work.Flops), float64(pk.Flops), units.TimeToCompute(work.Flops, pk.Flops)},
		ResMemory:     {float64(work.MemBytes), float64(pk.Mem), units.TimeToMove(work.MemBytes, pk.Mem)},
		ResPCIe:       {float64(work.PCIeBytes), float64(pk.PCIe), units.TimeToMove(work.PCIeBytes, pk.PCIe)},
		ResNetwork:    {float64(work.NetworkBytes), float64(pk.NIC), units.TimeToMove(work.NetworkBytes, pk.NIC)},
		ResFileSystem: {float64(work.FSBytes), float64(pk.FS), units.TimeToMove(work.FSBytes, pk.FS)},
		ResExternal:   {float64(work.ExternalBytes), float64(pk.External), units.TimeToMove(work.ExternalBytes, pk.External)},
	}
	for r := range l {
		if l[r].Vol > 0 && l[r].Peak <= 0 {
			return Loads{}, fmt.Errorf("core: %w", pk.NoPeak(name, Resource(r).String()))
		}
	}
	if pk.Bisection > 0 {
		vol := units.Bytes(float64(work.NetworkBytes) * float64(nodes) * machine.BisectionShare)
		l[ResBisection] = Load{float64(vol), float64(pk.Bisection), units.TimeToMove(vol, pk.Bisection)}
	}
	return l, nil
}

// ceilingOrder is Build's presentation order of the resources with a peak.
// Network bytes are characterized per node and ride the per-node NIC, but
// the paper draws the network as a shared system ceiling (Fig 1); the
// per-node ratio is p-invariant either way. Ridgeline-style fabrics add the
// bisection ceiling right after it.
var ceilingOrder = [...]struct {
	res   Resource
	scope Scope
}{
	{ResCompute, ScopeNode},
	{ResMemory, ScopeNode},
	{ResPCIe, ScopeNode},
	{ResNetwork, ScopeSystem},
	{ResBisection, ScopeSystem},
	{ResFileSystem, ScopeSystem},
	{ResExternal, ScopeSystem},
}

// ceilingLoads is Build's arithmetic: the wall from node counts (the
// partition's, or availableNodes when positive), and the loads of the
// heaviest task's work (work) spread over the widest task's node count
// (req). name labels the workflow in errors.
func ceilingLoads(pk *machine.Peaks, name string, work workflow.Work, req, availableNodes int) (int, Loads, error) {
	nodes := pk.Nodes
	if availableNodes > 0 {
		nodes = availableNodes
	}
	if req > nodes {
		return 0, Loads{}, fmt.Errorf("core: workflow %s needs %d nodes per task but only %d are available",
			name, req, nodes)
	}
	loads, err := TaskLoads(name, work, req, pk)
	return nodes / req, loads, err
}

// ceilingName renders the display label of resource res's ceiling at load l.
func ceilingName(res Resource, l Load) string {
	if res == ResCompute {
		return "Compute: " + units.Flops(l.Vol).String() + " @ " + units.FlopRate(l.Peak).String()
	}
	vol, peak := units.Bytes(l.Vol).String(), units.ByteRate(l.Peak).String()
	switch res {
	case ResMemory:
		return "Memory: " + vol + " @ " + peak
	case ResPCIe:
		return "PCIe: " + vol + " @ " + peak
	case ResNetwork:
		return "Network: " + vol + "/node @ " + peak
	case ResBisection:
		return "Bisection: " + vol + "/task @ " + peak
	case ResFileSystem:
		return "File System: " + vol + " @ " + peak
	default:
		return "System External: " + vol + " @ " + peak
	}
}
