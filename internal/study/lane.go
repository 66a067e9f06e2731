package study

import (
	"sync"
	"sync/atomic"

	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/plancache"
	"wroofline/internal/sim"
	"wroofline/internal/wfgen"
	"wroofline/internal/workflow"
)

// The corpus lane.
//
// A corpus scenario's topology depends only on its family, width and depth;
// the seed, CV and volumes only change the work each task draws. The lane
// compiles each template family's topology and the simulator's work-free
// plan half once (a corpusShape, shared through the plan cache under
// plancache.ShapeKey) and then, per scenario, draws the work into flat
// per-task arrays, evaluates the roofline bound from the heaviest task's
// work, binds the work onto the shared plan half and simulates — with no
// task names, maps or ceiling labels built. It runs the same code the
// reference path does (wfgen.Generate and sim.Compile are topology → draw
// and shape → bind too), so its corpusScenario is bit-identical to
// Generate → core.Build → sim.Compile → RunScalar; whenever a lane step
// fails, runCorpus reruns the scenario on that reference path, which
// reports the error in its own words.

// maxCachedShapeTasks bounds the shapes the plan cache keeps. A shape costs
// about 100 bytes per task, so 512 cached entries stay under ~50 MB; a
// larger shape (up to wfgen.MaxTasks) is compiled once per request and
// dropped with it.
const maxCachedShapeTasks = 1024

// corpusShape is one family's compiled corpus shape on a machine: the
// generator topology, the plan half bound per scenario and the partition's
// peaks. It is immutable.
type corpusShape struct {
	topo  *wfgen.Topology
	plan  *sim.Shape
	peaks machine.Peaks
	nodes int // every task's node requirement
}

// compileCorpusShape compiles the shape of a validated spec on m.
func compileCorpusShape(s *wfgen.Spec, m *machine.Machine) (*corpusShape, error) {
	topo, err := wfgen.CompileTopology(s)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := s.Normalized()
	peaks, err := m.Peaks(n.Partition, 0)
	if err != nil {
		return nil, err
	}
	nodes := make([]int, len(topo.IDs))
	for i := range nodes {
		nodes[i] = n.NodesPerTask
	}
	plan, err := sim.NewShape(sim.Graph{
		Partition: n.Partition,
		IDs:       topo.IDs,
		Nodes:     nodes,
		SuccOff:   topo.SuccOff,
		Succ:      topo.Succ,
	}, sim.Config{Machine: m})
	if err != nil {
		return nil, err
	}
	return &corpusShape{topo: topo, plan: plan, peaks: peaks, nodes: n.NodesPerTask}, nil
}

// corpusLanes holds a request's per-family lane state. It is allocated on
// the request's first scenario without a cached outcome, so a request
// served entirely from the cache (the CV <= 0 family hits) pays nothing
// for it.
type corpusLanes struct{ p atomic.Pointer[[]laneFamily] }

// family returns family f's lane state out of n.
func (l *corpusLanes) family(f, n int) *laneFamily {
	fams := l.p.Load()
	if fams == nil {
		s := make([]laneFamily, n)
		l.p.CompareAndSwap(nil, &s)
		fams = l.p.Load()
	}
	return &(*fams)[f]
}

// laneFamily is one template family's lane state for a request: its shape,
// looked up or compiled on the family's first lane scenario, and its
// parsed volumes. A nil shape sends every scenario of the family down the
// reference path.
type laneFamily struct {
	once  sync.Once
	shape *corpusShape
	vols  wfgen.Volumes
}

// get returns the family's shape, fetching it from the plan cache or
// compiling (and, when small enough, caching) it on first use.
func (f *laneFamily) get(s *wfgen.Spec, m *machine.Machine, plans *plancache.Cache) *corpusShape {
	f.once.Do(func() {
		vols, err := s.Volumes()
		if err != nil {
			return
		}
		f.vols = vols
		var key plancache.Key
		if plans != nil {
			key = plancache.ShapeKey(s, m.Name)
			if v, ok := plans.Get(key); ok {
				f.shape = v.(*corpusShape)
				return
			}
		}
		if f.shape, err = compileCorpusShape(s, m); err != nil {
			f.shape = nil
			return
		}
		if len(f.shape.topo.IDs) <= maxCachedShapeTasks {
			plans.Put(key, f.shape)
		}
	})
	return f.shape
}

// scenario evaluates scenario i (spec s) of the family on the lane, or on
// the reference path when a lane step fails. lane reports which ran.
func (f *laneFamily) scenario(s *wfgen.Spec, m *machine.Machine, plans *plancache.Cache, i int, sc *laneScratch) (c corpusScenario, lane bool, err error) {
	if cs := f.get(s, m, plans); cs != nil {
		c, lane = cs.scenario(&f.vols, s.Seed, sc)
	}
	if !lane {
		c, err = referenceScenario(s, m, i)
	}
	c.family = s.Family
	return c, lane, err
}

// laneScratch is a worker's reusable draw buffer and plan.
type laneScratch struct {
	work []workflow.Work
	plan sim.Plan
}

var lanePool = sync.Pool{New: func() any { return new(laneScratch) }}

// put returns the scratch to the pool unless it grew past the cached-shape
// bound, so the pool never pins a huge scenario's buffers.
func (sc *laneScratch) put() {
	if cap(sc.work) <= maxCachedShapeTasks {
		lanePool.Put(sc)
	}
}

// scenario draws, bounds, binds and simulates one seed of the shape's
// family on sc. ok is false when any step fails.
func (cs *corpusShape) scenario(vols *wfgen.Volumes, seed uint64, sc *laneScratch) (out corpusScenario, ok bool) {
	sc.work = cs.topo.Draw(vols, seed, sc.work)
	var heaviest workflow.Work
	for _, w := range sc.work {
		heaviest = heaviest.Max(w)
	}
	bound, limit, err := core.WallBound(&cs.peaks, heaviest, cs.nodes)
	if err != nil {
		return out, false
	}
	if err := cs.plan.Bind(&sc.plan, sc.work); err != nil {
		return out, false
	}
	br, err := sc.plan.RunScalar(sim.Trial{})
	if err != nil {
		return out, false
	}
	return corpusScenario{
		tasks:    len(sc.work),
		boundTPS: bound,
		limiting: limit.String(),
		makespan: br.Makespan,
	}, true
}
