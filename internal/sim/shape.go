package sim

import (
	"fmt"
	"slices"

	"wroofline/internal/failure"
	"wroofline/internal/machine"
	"wroofline/internal/resources"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

// Graph is a workflow's dependency structure in index form, the input of
// NewShape. Tasks are numbered in plan order: by ascending ID.
type Graph struct {
	// Name labels the workflow in errors.
	Name string
	// Partition names the machine partition the workflow runs on.
	Partition string
	// IDs are the task IDs, ascending.
	IDs []string
	// Nodes is each task's node requirement (all positive).
	Nodes []int
	// SuccOff and Succ are the successor rows: task i's distinct successors
	// are Succ[SuccOff[i]:SuccOff[i+1]], ascending.
	SuccOff, Succ []int32
}

// Shape is the work-free half of a compiled plan: the tasks in plan order
// with their IDs, node counts and fault-stream hashes, the dependency
// structure, and the partition's peaks. Bind adds a work vector
// per task to make a runnable Plan, so one Shape serves every scenario that
// differs only in work — a corpus template's seeds and variations. A Shape
// is immutable and safe for concurrent Bind calls; Compile is NewShape then
// Bind.
type Shape struct{ shape }

// shape is Shape's state; Plan embeds a copy, so the event loop reads the
// shape's tables directly.
type shape struct {
	name  string
	cfg   Config
	peaks machine.Peaks // after cfg.ExternalBW

	nodes        int
	maxTaskNodes int
	sumNodes     int
	total        int
	maxEvents    uint64

	ids       []string // ascending
	taskNodes []int    // node requirement by task index
	taskHash  []uint64 // failure.TaskHash of each ID, seeding fault streams
	preds     []int    // dependency counts by task index
	succOff   []int32  // successors of task i: succ[succOff[i]:succOff[i+1]]
	succ      []int32

	// The error a plan that needs the external or file-system link
	// reports: which links a plan needs depends on its work (see bind).
	externalErr, fsErr error
}

// NewShape validates the graph's partition and node requirements against
// the configuration and compiles the work-free half of a plan. It reports
// the errors Compile reports for the same workflow before any phase is
// examined.
func NewShape(g Graph, cfg Config) (*Shape, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sim: nil machine")
	}
	pk, err := cfg.Machine.Peaks(g.Partition, cfg.ExternalBW)
	if err != nil {
		return nil, err
	}
	s := new(Shape)
	if err := s.init(g, pk, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// init fills the shape from a graph on a partition's resolved peaks.
func (s *Shape) init(g Graph, pk machine.Peaks, cfg Config) error {
	nodes := pk.Nodes
	if cfg.AvailableNodes > 0 {
		nodes = cfg.AvailableNodes
	}
	maxTaskNodes, sumNodes := 0, 0
	for _, k := range g.Nodes {
		maxTaskNodes = max(maxTaskNodes, k)
		sumNodes += k
	}
	// Every task needs at least one node, so passing this check also
	// guarantees the positive pool capacity the trial scratch needs.
	if maxTaskNodes > nodes {
		return fmt.Errorf("sim: workflow %s needs %d nodes per task but only %d are available",
			g.Name, maxTaskNodes, nodes)
	}
	if cfg.Failures.Enabled() && cfg.Failures.Retry.MaxAttempts <= 0 {
		return fmt.Errorf("sim: failure model needs positive max attempts, got %d", cfg.Failures.Retry.MaxAttempts)
	}

	n := len(g.IDs)
	s.shape = shape{
		name:         g.Name,
		cfg:          cfg,
		peaks:        pk,
		nodes:        nodes,
		maxTaskNodes: maxTaskNodes,
		sumNodes:     sumNodes,
		total:        n,
		maxEvents:    cfg.MaxEvents,
		ids:          g.IDs,
		taskNodes:    g.Nodes,
		succOff:      g.SuccOff,
		succ:         g.Succ,
	}
	if s.maxEvents == 0 {
		s.maxEvents = 10_000_000
	}
	s.taskHash = make([]uint64, n)
	for i, id := range g.IDs {
		s.taskHash[i] = failure.TaskHash(id)
	}
	s.preds = make([]int, n)
	for _, v := range g.Succ {
		s.preds[v]++
	}

	s.externalErr = s.linkErr("external", pk.External, cfg.ExternalPerFlowCap)
	s.fsErr = s.linkErr("filesystem", pk.FS, cfg.FSPerFlowCap)
	return nil
}

// linkErr is the error a plan needing the shared link of resource reports:
// the named error when the partition has no peak for it, else the link's
// own check of its geometry.
func (s *shape) linkErr(resource string, peak, perFlowCap units.ByteRate) error {
	if peak <= 0 {
		return fmt.Errorf("sim: %w", s.peaks.NoPeak(s.name, resource))
	}
	return resources.CheckLink(resource, float64(peak), float64(perFlowCap))
}

// graphOf returns the index form of a validated workflow whose tasks, in
// ID order, are tasks.
func graphOf(wf *workflow.Workflow, tasks []*workflow.Task) Graph {
	n := len(tasks)
	g := Graph{Name: wf.Name, Partition: wf.Partition, IDs: make([]string, n), Nodes: make([]int, n)}
	// rank maps a graph index to the task's plan index, so sorting a row of
	// ranks puts it in ID order.
	dg := wf.Graph()
	rank := make([]int32, n)
	edges := 0
	for i, t := range tasks {
		g.IDs[i], g.Nodes[i] = t.ID, t.Nodes
		gi, _ := dg.Index(t.ID)
		rank[gi] = int32(i)
		edges += len(dg.SuccIndices(gi))
	}
	slab := make([]int32, n+1+edges)
	g.SuccOff, g.Succ = slab[:n+1], slab[n+1:n+1]
	for i, t := range tasks {
		gi, _ := dg.Index(t.ID)
		for _, s := range dg.SuccIndices(gi) {
			g.Succ = append(g.Succ, rank[s])
		}
		slices.Sort(g.Succ[g.SuccOff[i]:])
		g.SuccOff[i+1] = int32(len(g.Succ))
	}
	return g
}

// Bind compiles per-task work onto the shape into p: every task runs the
// default program of its work vector, with work indexed in plan order. p
// may be a zero Plan or one bound before, whose storage is reused; it must
// not be in use by any run. The bound plan starts with an empty trial memo
// and reports the errors Compile reports for the same workflow.
func (s *Shape) Bind(p *Plan, work []workflow.Work) error {
	return s.bind(p, work, nil)
}

// bind is Bind with optional custom programs, keyed by task ID, in place of
// the default program of their task's work.
func (s *Shape) bind(p *Plan, work []workflow.Work, custom map[string]Program) error {
	if len(work) != len(s.ids) {
		return fmt.Errorf("sim: %d work vectors for %d tasks", len(work), len(s.ids))
	}
	p.shape = s.shape
	p.analytic = nil
	p.memo = trialMemo{}
	p.needExternal, p.needFS, p.needBis = false, false, false

	// Default programs are carved out of one slab, sized by a counting pass.
	n := len(s.ids)
	defaults := 0
	for i := range work {
		if _, ok := custom[s.ids[i]]; !ok {
			defaults += defaultPhases(&work[i])
		}
	}
	slab := p.slab[:0]
	if cap(slab) < defaults {
		slab = make(Program, 0, defaults)
	}
	p.programs = fit(p.programs, n)
	p.staged = fit(p.staged, n)
	p.phOff = fit(p.phOff, n+1)
	p.slots = 0
	hasNetwork := false
	for i := range work {
		prog, ok := custom[s.ids[i]]
		if !ok {
			start := len(slab)
			slab = appendDefaultProgram(slab, &work[i])
			prog = nil
			if len(slab) > start {
				prog = slab[start:len(slab):len(slab)]
			}
		}
		for _, ph := range prog {
			if err := ph.validate(); err != nil {
				return fmt.Errorf("sim: task %q: %w", s.ids[i], err)
			}
			switch ph.Kind {
			case PhaseExternal:
				if ph.Bytes > 0 {
					p.needExternal = true
				}
			case PhaseFS:
				if ph.Bytes > 0 {
					p.needFS = true
				}
			case PhaseNetwork:
				if ph.Bytes > 0 {
					hasNetwork = true
				}
			}
		}
		p.programs[i] = prog
		p.staged[i] = stagedBytes(prog)
		p.phOff[i] = p.slots
		p.slots += len(prog)
	}
	p.slab = slab
	p.phOff[n] = p.slots
	if p.needExternal && s.externalErr != nil {
		return s.externalErr
	}
	if p.needFS && s.fsErr != nil {
		return s.fsErr
	}
	p.needBis = s.peaks.Bisection > 0 && hasNetwork

	p.slotTask = fit(p.slotTask, p.slots)
	p.slotSec = fit(p.slotSec, p.slots)
	for i, prog := range p.programs {
		off := p.phOff[i]
		for j := range prog {
			p.slotTask[off+j] = int32(i)
			d := 0.0
			switch prog[j].Kind {
			case PhaseExternal, PhaseFS:
			default:
				var err error
				if d, err = p.nodePhaseSeconds(i, &prog[j]); err != nil {
					return err
				}
			}
			p.slotSec[off+j] = d
		}
	}
	p.computeAnalytic()
	return nil
}
