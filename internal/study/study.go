// Package study defines the JSON spec format for ensemble studies — Monte
// Carlo contention trials, what-if scenario grids, closed-form archetype
// shape surveys, failure ensembles and generated-scenario corpora — and
// runs the ensembles over the sweep worker pool. It is the shared
// evaluation entry point behind cmd/wfsweep and the wfserved /v1/sweep
// endpoint: one spec format, one runner, every consumer.
//
// Results are bit-identical at any worker count (see internal/sweep), which
// is what makes specs content-addressable: Canonical renders a spec into a
// normalized byte form whose hash identifies the result regardless of
// formatting, field order, or requested worker count.
package study

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"wroofline/internal/contention"
	"wroofline/internal/core"
	"wroofline/internal/failure"
	"wroofline/internal/machine"
	"wroofline/internal/plancache"
	"wroofline/internal/report"
	"wroofline/internal/sim"
	"wroofline/internal/sweep"
	"wroofline/internal/units"
	"wroofline/internal/wfgen"
	"wroofline/internal/whatif"
	"wroofline/internal/workflow"
	"wroofline/internal/workloads"
)

// Spec is the JSON study description.
type Spec struct {
	// Kind selects the study: "montecarlo", "grid", or "survey".
	Kind string `json:"kind"`
	// Workers bounds the pool (0 = GOMAXPROCS). Workers never changes the
	// result bytes, only the wall-clock time, so Canonical normalizes it
	// away.
	Workers int `json:"workers,omitempty"`
	// Batch sets how many trials each worker runs per batch-executor call in
	// the montecarlo/failures kinds (0 = sweep.ChunkSize default). Like
	// Workers it is a pure performance knob — per-trial seeding ignores the
	// chunk geometry — so Canonical normalizes it away too.
	Batch int `json:"batch,omitempty"`

	// Case names a built-in case study (montecarlo and grid kinds).
	Case string `json:"case,omitempty"`

	// Trials, Seed, Streams, and Sampler configure a Monte Carlo ensemble:
	// each trial draws a per-stream external rate from the sampler and
	// simulates the case study's makespan with Streams concurrent staging
	// flows at that rate (aggregate = Streams x rate).
	Trials  int          `json:"trials,omitempty"`
	Seed    uint64       `json:"seed,omitempty"`
	Streams int          `json:"streams,omitempty"`
	Sampler *SamplerSpec `json:"sampler,omitempty"`

	// P plus the three axis lists configure a what-if grid over the case
	// study's model.
	P           float64            `json:"p,omitempty"`
	Resources   []ResourceAxisSpec `json:"resources,omitempty"`
	WallFactors []float64          `json:"wall_factors,omitempty"`
	IntraTask   []IntraTaskOptSpec `json:"intra_task,omitempty"`

	// Failure configures a failure-ensemble study: Trials independent
	// simulations of the case under the failure model, each trial re-seeded
	// from (Seed, trial), reporting the makespan/throughput degradation
	// distribution and where the retries landed.
	Failure *failure.Spec `json:"failure,omitempty"`

	// Machine/Partition plus the shape-grid fields configure a survey.
	Machine      string    `json:"machine,omitempty"`
	Partition    string    `json:"partition,omitempty"`
	Widths       []int     `json:"widths,omitempty"`
	Depths       []int     `json:"depths,omitempty"`
	NodesPerTask int       `json:"nodes_per_task,omitempty"`
	Work         *WorkSpec `json:"work,omitempty"`

	// Count, Families, and Template configure a generated-scenario corpus
	// (kind "corpus"): Count workflows are generated from the wfgen Template,
	// cycling through Families (default: wfgen.Families(), the five corpus
	// families; the archetype families join by name), with scenario i seeded
	// from (Seed, i). Each scenario is analyzed (roofline bound at the wall)
	// and simulated (makespan) on Machine, and the results aggregate into
	// per-family, distribution, and binding-ceiling tables.
	Count    int         `json:"count,omitempty"`
	Families []string    `json:"families,omitempty"`
	Template *wfgen.Spec `json:"template,omitempty"`
}

// SamplerSpec selects and parameterizes a contention day-sampler.
type SamplerSpec struct {
	// Model is "twostate" or "lognormal".
	Model string `json:"model"`
	// Base is the uncontended per-stream rate, e.g. "1 GB/s".
	Base string `json:"base"`
	// Degraded and PBad parameterize the twostate model.
	Degraded string  `json:"degraded,omitempty"`
	PBad     float64 `json:"p_bad,omitempty"`
	// Mu and Sigma parameterize the lognormal slowdown factor.
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// ResourceAxisSpec is one grid dimension with a symbolic resource name.
type ResourceAxisSpec struct {
	Resource string    `json:"resource"`
	Factors  []float64 `json:"factors"`
}

// IntraTaskOptSpec is one intra-task-parallelism grid option.
type IntraTaskOptSpec struct {
	K          float64 `json:"k"`
	Efficiency float64 `json:"efficiency,omitempty"`
}

// WorkSpec carries per-task work quantities as unit strings.
type WorkSpec struct {
	Flops    string `json:"flops,omitempty"`
	Mem      string `json:"mem,omitempty"`
	PCIe     string `json:"pcie,omitempty"`
	Net      string `json:"net,omitempty"`
	FS       string `json:"fs,omitempty"`
	External string `json:"external,omitempty"`
}

// ParseSpec strictly decodes a spec: unknown fields are errors, so typos in
// hand-written specs fail loudly instead of silently running the default.
func ParseSpec(data []byte) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("parse spec: %w", err)
	}
	return &spec, nil
}

// Canonical renders the spec in its content-addressable form: a single JSON
// encoding with fixed field order and the worker count and batch size
// normalized to zero. Two specs with equal Canonical bytes produce
// byte-identical study output, because the sweep engine is deterministic at
// any worker count and batch size — this is the cache key the analysis
// service hashes.
func (s *Spec) Canonical() ([]byte, error) {
	c := *s
	c.Workers = 0
	c.Batch = 0
	return json.Marshal(&c)
}

// RunCached is RunStreamCached without progress snapshots. It stays for the
// wfbench benchmark module, whose layer replays compile against it; the CLI
// and the service call RunStreamCached.
func RunCached(ctx context.Context, spec *Spec, plans *plancache.Cache) ([]*report.Table, error) {
	return RunStreamCached(ctx, spec, plans, nil)
}

// compileCase returns the case study's compiled plan, consulting the plan
// cache when one is wired. The case name alone is the evaluation identity:
// workloads.ByName constructs the same workflow, machine, and simulation
// configuration (including any baked-in failure model) for a given name
// every time, and compiled plans are immutable and safe for concurrent Run
// calls, so one cached plan serves every trials/seed/workers/batch
// variation over the case — spec.Failure never enters the plan (fault
// models ride in per-trial sim.Trial values).
func compileCase(plans *plancache.Cache, name string) (*sim.Plan, error) {
	key := plancache.CaseKey(name)
	if v, ok := plans.Get(key); ok {
		return v.(*sim.Plan), nil
	}
	cs, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	plan, err := cs.Compile()
	if err != nil {
		return nil, err
	}
	plans.Put(key, plan)
	return plan, nil
}

func errUnknownKind(kind string) error {
	return fmt.Errorf("unknown spec kind %q (want montecarlo, grid, survey, failures, or corpus)", kind)
}

// sampler builds the contention sampler from the spec.
func (s *SamplerSpec) sampler() (contention.Sampler, error) {
	if s == nil {
		return nil, fmt.Errorf("montecarlo spec needs a sampler")
	}
	base, err := units.ParseByteRate(s.Base)
	if err != nil {
		return nil, fmt.Errorf("sampler base: %w", err)
	}
	switch s.Model {
	case "twostate":
		degraded, err := units.ParseByteRate(s.Degraded)
		if err != nil {
			return nil, fmt.Errorf("sampler degraded: %w", err)
		}
		m := contention.TwoState{Base: base, Degraded: degraded, PBad: s.PBad}
		return m, m.Validate()
	case "lognormal":
		m := contention.Lognormal{Base: base, Mu: s.Mu, Sigma: s.Sigma}
		return m, m.Validate()
	default:
		return nil, fmt.Errorf("unknown sampler model %q (want twostate or lognormal)", s.Model)
	}
}

// runMonteCarlo fans the day trials over the pool: each trial draws a
// per-stream rate and simulates the case study with the external path set to
// Streams flows at that rate. A non-nil emit receives throttled partial
// summaries as the day frontier advances (see RunStreamCached).
func runMonteCarlo(ctx context.Context, spec *Spec, plans *plancache.Cache, emit func(Progress)) ([]*report.Table, error) {
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("montecarlo spec needs positive trials, got %d", spec.Trials)
	}
	s, err := spec.Sampler.sampler()
	if err != nil {
		return nil, err
	}
	// Compile the case once (or fetch the shared immutable plan from the
	// cache); every trial shares it and only varies the external path.
	// Plan.Run is safe for concurrent trials.
	plan, err := compileCase(plans, spec.Case)
	if err != nil {
		return nil, err
	}
	streams := spec.Streams
	if streams <= 0 {
		streams = 1
	}
	// Each chunk of days becomes one batch-executor call: the worker reuses a
	// single scratch trial state for the whole chunk and the executor dedupes
	// repeated day rates (a two-state sampler yields two distinct trials per
	// batch). Day seeding is chunk-independent, so the distribution is
	// bit-identical to the per-trial path at any worker count or batch size.
	days, err := contention.MonteCarlo(ctx, spec.Trials, spec.Seed, spec.Workers, spec.Batch, s,
		func(days []units.ByteRate, out []float64) error {
			cs := getChunkScratch(len(days))
			defer cs.put()
			for i, rate := range days {
				cs.trials[i] = sim.Trial{
					OverrideExternal: true,
					ExternalBW:       units.ByteRate(streams) * rate,
				}
				if streams > 1 {
					cs.trials[i].ExternalPerFlowCap = rate
				}
			}
			if err := plan.RunBatch(cs.trials, cs.brs); err != nil {
				return err
			}
			for i, br := range cs.brs {
				out[i] = br.Makespan
			}
			return nil
		},
		progressFn(spec.Trials, emit, func(v float64) (float64, bool) { return v, true }))
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Monte Carlo makespan (s): %s, %d trials, seed %d", spec.Case, spec.Trials, spec.Seed),
		"n", "min", "p50", "p90", "p99", "max", "mean", "p99/p50")
	sum, err := sweep.Summarize(days)
	if err != nil {
		return nil, err
	}
	if err := tbl.AddRowf(fmt.Sprint(sum.N), sum.Min, sum.P50, sum.P90, sum.P99, sum.Max, sum.Mean, sum.TailRatio); err != nil {
		return nil, err
	}
	return []*report.Table{tbl}, nil
}

// chunkScratch is one chunk's batch-executor input and output. The Monte
// Carlo and failure runners take it from chunkPool per chunk, so a worker
// reuses the same slices across chunks and requests. models backs the
// failure trials' per-trial fault models.
type chunkScratch struct {
	trials []sim.Trial
	brs    []sim.BatchResult
	models []failure.Model
}

var chunkPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// getChunkScratch returns a pooled scratch sized for n trials.
func getChunkScratch(n int) *chunkScratch {
	cs := chunkPool.Get().(*chunkScratch)
	if cap(cs.trials) < n {
		cs.trials = make([]sim.Trial, n)
		cs.brs = make([]sim.BatchResult, n)
	}
	cs.trials, cs.brs = cs.trials[:n], cs.brs[:n]
	return cs
}

// put clears the trials, so the pool never pins a chunk's failure models,
// and returns the scratch to the pool.
func (cs *chunkScratch) put() {
	clear(cs.trials)
	chunkPool.Put(cs)
}

// failureTrial is one failure-ensemble outcome. An unfinished trial had a
// task fail on every attempt its retry policy allows, so it has no
// makespan.
type failureTrial struct {
	makespan   float64
	retries    int32
	unfinished bool
	label      string
}

// unfinishedLabel is the dominant-retry histogram bin of unfinished trials.
const unfinishedLabel = "unfinished"

// runFailures simulates the case Trials times under the failure model, each
// trial with an independent fault sequence seeded from (Seed, trial), and
// reports the makespan/TPS degradation distribution, the retry-count
// distribution, and the histogram of which phase the retries hammered. A
// non-nil emit receives throttled partial makespan summaries.
//
// A trial in which a task exhausts its attempts is unfinished: it lands in
// the histogram's "unfinished" bin and stays out of the makespan and retry
// aggregates and the progress snapshots, so their n counts finished trials.
// Only an ensemble with no finished trial fails, with the error trial 0
// reported.
func runFailures(ctx context.Context, spec *Spec, plans *plancache.Cache, emit func(Progress)) ([]*report.Table, error) {
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("failures spec needs positive trials, got %d", spec.Trials)
	}
	if spec.Failure == nil {
		return nil, fmt.Errorf("failures spec needs a failure block")
	}
	// Compile the case (or fetch the shared plan) and the failure spec once
	// up front; every trial shares the immutable plan and carries its own
	// copy of the model with only the seed changed (Compile copies the seed
	// through untouched, so the copy is what compiling the reseeded spec
	// would build).
	plan, err := compileCase(plans, spec.Case)
	if err != nil {
		return nil, err
	}
	model, err := spec.Failure.Compile()
	if err != nil {
		return nil, err
	}
	// The baseline is one failure-free trial through the batch executor, so
	// the plan's analytic result or trial memo serves it; its makespan and
	// throughput are bit-identical to a full Run's.
	var base [1]sim.BatchResult
	if err := plan.RunBatch([]sim.Trial{{}}, base[:]); err != nil {
		var te *sim.TrialError
		if errors.As(err, &te) {
			err = te.Err
		}
		return nil, fmt.Errorf("baseline simulation: %w", err)
	}
	baseline := base[0]

	// Trials run through the batch executor in chunks: one scratch per chunk,
	// no per-trial Recorder or Result maps. Each trial still carries its own
	// fault model seeded from (Seed, trial) — chunk geometry never touches
	// the random streams, so outcomes match the per-trial path bit for bit.
	// A chunk resumes after an unfinished trial; trial 0's error, wrapped
	// the way the sweep wraps a failed trial, is kept for the ensemble that
	// never finishes a trial.
	var err0 error
	trials, err := sweep.MapChunksProgress(ctx, spec.Trials, spec.Workers, spec.Batch,
		func(ctx context.Context, lo, hi int, out []failureTrial) error {
			cs := getChunkScratch(hi - lo)
			defer cs.put()
			if cap(cs.models) < len(cs.trials) {
				cs.models = make([]failure.Model, len(cs.trials))
			}
			cs.models = cs.models[:len(cs.trials)]
			for i := range cs.trials {
				cs.models[i] = *model
				cs.models[i].Seed = sweep.TrialSeed(spec.Seed, lo+i)
				cs.trials[i] = sim.Trial{Failures: &cs.models[i]}
			}
			for start := 0; start < len(cs.trials); {
				end := len(cs.trials)
				if err := plan.RunBatch(cs.trials[start:], cs.brs[start:]); err != nil {
					var te *sim.TrialError
					if !errors.As(err, &te) || !errors.Is(err, sim.ErrPermanentFailure) {
						return err
					}
					end = start + te.Trial
					out[end] = failureTrial{unfinished: true}
					if lo+end == 0 {
						err0 = fmt.Errorf("sweep: trial 0: %w", err)
					}
				}
				for i := start; i < end; i++ {
					br := &cs.brs[i]
					out[i] = failureTrial{
						makespan: br.Makespan,
						retries:  int32(br.Retries),
						label:    br.DominantRetry,
					}
				}
				start = end + 1
			}
			return nil
		},
		progressFn(spec.Trials, emit, func(t failureTrial) (float64, bool) { return t.makespan, !t.unfinished }))
	if err != nil {
		return nil, err
	}
	finished := 0
	for _, tr := range trials {
		if !tr.unfinished {
			finished++
		}
	}
	if finished == 0 {
		return nil, err0
	}
	makespans := make([]float64, 0, finished)
	retries := make([]float64, 0, finished)
	for _, tr := range trials {
		if !tr.unfinished {
			makespans = append(makespans, tr.makespan)
			retries = append(retries, float64(tr.retries))
		}
	}
	ms, err := sweep.Summarize(makespans)
	if err != nil {
		return nil, err
	}
	rs, err := sweep.Summarize(retries)
	if err != nil {
		return nil, err
	}

	mk := report.NewTable(
		fmt.Sprintf("Failure-ensemble makespan (s): %s, %d trials, seed %d, p=%s",
			spec.Case, spec.Trials, spec.Seed, report.Num(spec.Failure.TaskFailProb)),
		"n", "baseline", "min", "p50", "p90", "p99", "max", "mean", "p99/p50")
	if err := mk.AddRowf(fmt.Sprint(ms.N), baseline.Makespan,
		ms.Min, ms.P50, ms.P90, ms.P99, ms.Max, ms.Mean, ms.TailRatio); err != nil {
		return nil, err
	}

	baseTPS := baseline.Throughput
	tps := report.NewTable("Throughput degradation (tasks/s)",
		"baseline TPS", "mean TPS", "p50 TPS", "worst TPS", "mean slowdown")
	meanTPS, p50TPS, worstTPS, slowdown := 0.0, 0.0, 0.0, 0.0
	if ms.Mean > 0 {
		meanTPS = baseTPS * baseline.Makespan / ms.Mean
	}
	if ms.P50 > 0 {
		p50TPS = baseTPS * baseline.Makespan / ms.P50
	}
	if ms.Max > 0 {
		worstTPS = baseTPS * baseline.Makespan / ms.Max
	}
	if baseline.Makespan > 0 {
		slowdown = ms.Mean / baseline.Makespan
	}
	if err := tps.AddRowf(baseTPS, meanTPS, p50TPS, worstTPS, slowdown); err != nil {
		return nil, err
	}

	rt := report.NewTable("Retries per run",
		"min", "p50", "p99", "max", "mean")
	if err := rt.AddRowf(rs.Min, rs.P50, rs.P99, rs.Max, rs.Mean); err != nil {
		return nil, err
	}

	hist := report.NewTable("Dominant retry phase histogram", "phase", "runs")
	bins := sweep.Hist(len(trials), func(i int) string {
		if trials[i].unfinished {
			return unfinishedLabel
		}
		return trials[i].label
	})
	for _, bin := range bins {
		if err := hist.AddRowf(bin.Label, fmt.Sprint(bin.Count)); err != nil {
			return nil, err
		}
	}
	return []*report.Table{mk, tps, rt, hist}, nil
}

// runGrid evaluates the cartesian what-if space over the case's model and
// reports every cell plus the binding-ceiling histogram.
func runGrid(ctx context.Context, spec *Spec) ([]*report.Table, error) {
	cs, err := workloads.ByName(spec.Case)
	if err != nil {
		return nil, err
	}
	p := spec.P
	if p <= 0 {
		p = float64(cs.Model.Wall)
	}
	g := whatif.Grid{WallFactors: spec.WallFactors}
	for _, ax := range spec.Resources {
		res, err := core.ParseResource(ax.Resource)
		if err != nil {
			return nil, err
		}
		g.Resources = append(g.Resources, whatif.ResourceAxis{Resource: res, Factors: ax.Factors})
	}
	for _, it := range spec.IntraTask {
		g.IntraTask = append(g.IntraTask, whatif.IntraTaskOption{K: it.K, Efficiency: it.Efficiency})
	}
	size, err := g.Size()
	if err != nil {
		return nil, err
	}
	cells, err := whatif.EvaluateGrid(ctx, cs.Model, p, g, spec.Workers)
	if err != nil {
		return nil, err
	}
	grid := report.NewTable(
		fmt.Sprintf("What-if grid: %s at p=%s (%d scenarios)", spec.Case, report.Num(p), size),
		"scenario", "bound TPS", "speedup", "limited by")
	bounds := make([]float64, len(cells))
	for i, c := range cells {
		if err := grid.AddRowf(c.Name, c.Outcome.BoundTPS, c.Outcome.Speedup, c.Outcome.Limiting); err != nil {
			return nil, err
		}
		bounds[i] = c.Outcome.BoundTPS
	}
	s, err := sweep.Summarize(bounds)
	if err != nil {
		return nil, err
	}
	summary := report.NewTable("Bound distribution across scenarios (TPS)",
		"n", "min", "p50", "p99", "max", "mean", "p99/p50")
	if err := summary.AddRowf(fmt.Sprint(s.N), s.Min, s.P50, s.P99, s.Max, s.Mean, s.TailRatio); err != nil {
		return nil, err
	}
	hist := report.NewTable("Binding-ceiling histogram", "ceiling", "scenarios")
	for _, bin := range sweep.Hist(len(cells), func(i int) string { return cells[i].Outcome.Limiting }) {
		if err := hist.AddRowf(bin.Label, fmt.Sprint(bin.Count)); err != nil {
			return nil, err
		}
	}
	return []*report.Table{grid, summary, hist}, nil
}

// surveyShapes are the survey's archetype shapes in report order, each
// generated by a wfgen family. A shape reads only the grid dimensions its
// family uses: bag-of-tasks and fork-join ignore the depth, pipeline and
// scatter-gather the width.
var surveyShapes = []surveyShape{
	{"bag-of-tasks", "bag", true, false},
	{"pipeline", "chain", false, true},
	{"fork-join", "fanout", true, false},
	{"map-reduce", "mapreduce", true, true},
	{"scatter-gather", "scatter", false, true},
}

type surveyShape struct {
	name, family     string
	byWidth, byDepth bool
}

// tasks is the shape's task count at grid cell (w, d), read from its
// family's closed-form shape. A dimension the shape reads must be positive:
// wfgen would take a zero for its default.
func (sh surveyShape) tasks(w, d, nodesPerTask int) (int, error) {
	s := wfgen.Spec{Family: sh.family, NodesPerTask: nodesPerTask}
	if sh.byWidth {
		if w < 1 {
			return 0, fmt.Errorf("width must be positive, got %d", w)
		}
		s.Width = w
	}
	if sh.byDepth {
		if d < 1 {
			return 0, fmt.Errorf("depth must be positive, got %d", d)
		}
		s.Depth = d
	}
	shape, err := s.Shape()
	return shape.Tasks, err
}

// runSurvey reports every archetype shape across the width/depth grid. All
// cells share the machine, the uniform per-task work and the node count, so
// they share one wall, bound and limiting ceiling: the model is built once,
// and a cell reads only its task count from its family's closed-form shape.
// Cells run in (shape, width, depth) row-major order, and the first failing
// cell's error is the one reported.
func runSurvey(ctx context.Context, spec *Spec) ([]*report.Table, error) {
	m, err := machine.ByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	partition := spec.Partition
	if partition == "" {
		partition = defaultPartition(m)
	}
	work, err := spec.Work.work()
	if err != nil {
		return nil, err
	}
	widths, depths := spec.Widths, spec.Depths
	if len(widths) == 0 {
		widths = []int{4, 8, 16}
	}
	if len(depths) == 0 {
		depths = []int{2, 3}
	}
	wf := workflow.New("survey", partition)
	modelErr := wf.AddTask(&workflow.Task{ID: "task", Nodes: max(spec.NodesPerTask, 1), Work: work})
	var model *core.Model
	var bound float64
	var limit core.Ceiling
	if modelErr == nil {
		model, modelErr = core.Build(m, wf, core.BuildOptions{})
	}
	if modelErr == nil {
		bound, limit = model.BoundAtWall()
	}
	n := len(surveyShapes) * len(widths) * len(depths)
	tbl := report.NewTable(
		fmt.Sprintf("Archetype shape survey on %s/%s (%d shapes)", m.Name, partition, n),
		"shape", "width", "depth", "tasks", "wall", "bound TPS", "limited by")
	for _, sh := range surveyShapes {
		for _, w := range widths {
			for _, d := range depths {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				tasks, err := sh.tasks(w, d, spec.NodesPerTask)
				if err == nil {
					err = modelErr
				}
				if err != nil {
					return nil, fmt.Errorf("survey: %s w=%d d=%d: %w", sh.name, w, d, err)
				}
				if err := tbl.AddRowf(sh.name, fmt.Sprint(w), fmt.Sprint(d),
					fmt.Sprint(tasks), fmt.Sprint(model.Wall), bound, limit.Name); err != nil {
					return nil, err
				}
			}
		}
	}
	// One ceiling limits every cell.
	hist := report.NewTable("Binding-ceiling histogram", "ceiling", "shapes")
	if err := hist.AddRowf(limit.Name, fmt.Sprint(n)); err != nil {
		return nil, err
	}
	return []*report.Table{tbl, hist}, nil
}

// defaultPartition is the partition a survey or corpus runs on when its
// spec names none: cpu when the machine has it, else the machine's only
// partition. A machine with several partitions and no cpu keeps cpu, so the
// error lists the partitions to choose from.
func defaultPartition(m *machine.Machine) string {
	if _, ok := m.Partitions[machine.PartCPU]; !ok && len(m.Partitions) == 1 {
		for name := range m.Partitions {
			return name
		}
	}
	return machine.PartCPU
}

// corpusScenario is one generated scenario's analysis + simulation outcome.
type corpusScenario struct {
	family   string
	tasks    int
	boundTPS float64
	limiting string
	makespan float64
}

// runCorpus generates Count scenarios from the wfgen template, cycling
// through the topology families and seeding scenario i from (Seed, i), then
// analyzes (roofline bound at the wall) and simulates (makespan) each on the
// spec machine. The fan-out runs over the sweep pool in chunks — scenario
// seeding ignores the chunk geometry — so the tables are byte-identical at
// any worker count and batch size; a non-nil emit receives throttled
// partial makespan summaries as the scenario frontier advances.
//
// A scenario runs on the corpus lane (lane.go): its family's compiled shape
// with the scenario's work drawn onto it, bit-identical to generate →
// build → compile → simulate, which runs instead whenever a lane step
// fails. With a plan cache wired, small shapes are shared under
// plancache.ShapeKey, and a CV <= 0 template's outcomes are cached too: its
// seed never enters plancache.ScenarioKey, so one entry per family serves
// every scenario of every seed. A CV > 0 outcome depends on its seed, which
// a later request almost never repeats, so it is neither looked up nor
// stored; the scenario draws onto its family's cached shape instead. The
// cached scenario carries exactly the fields the tables read, so hit and
// miss scenarios aggregate identically.
func runCorpus(ctx context.Context, spec *Spec, plans *plancache.Cache, emit func(Progress)) ([]*report.Table, error) {
	if spec.Count <= 0 {
		return nil, fmt.Errorf("corpus spec needs positive count, got %d", spec.Count)
	}
	m, err := machine.ByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	families := spec.Families
	if len(families) == 0 {
		families = wfgen.Families()
	}
	var tmpl wfgen.Spec
	if spec.Template != nil {
		tmpl = *spec.Template
	}
	if tmpl.Partition == "" {
		tmpl.Partition = defaultPartition(m)
	}
	// Validate one representative spec per family up front so template errors
	// surface once, not Count times from inside the pool. The work
	// quantities are the template's own, the same for every family, so only
	// family 0 checks them: the first failing family still reports the
	// error a full check would. Only CV <= 0 outcomes are cached, and their
	// key is the family's, so each family's key is hashed here once.
	var famKeys []plancache.Key
	if plans != nil && tmpl.CV <= 0 {
		famKeys = make([]plancache.Key, len(families))
	}
	for f, fam := range families {
		s := tmpl
		s.Family = fam
		if f == 0 {
			err = s.Validate()
		} else {
			err = s.ValidateShape()
		}
		if err != nil {
			return nil, err
		}
		if famKeys != nil {
			famKeys[f] = plancache.ScenarioKey(&s, m.Name)
		}
	}
	var lanes corpusLanes
	scenarios, err := sweep.MapChunksProgress(ctx, spec.Count, spec.Workers, spec.Batch,
		func(ctx context.Context, lo, hi int, out []corpusScenario) error {
			scratch := lanePool.Get().(*laneScratch)
			defer scratch.put()
			for j := range out {
				i := lo + j
				f := i % len(families)
				s := tmpl
				s.Family = families[f]
				s.Seed = sweep.TrialSeed(spec.Seed, i)
				if famKeys != nil {
					if v, ok := plans.Get(famKeys[f]); ok {
						sc := v.(*plancache.Scenario)
						out[j] = corpusScenario{
							family:   s.Family,
							tasks:    sc.Tasks,
							boundTPS: sc.BoundTPS,
							limiting: sc.Limiting,
							makespan: sc.Makespan,
						}
						continue
					}
				}
				c, _, err := lanes.family(f, len(families)).scenario(&s, m, plans, i, scratch)
				if err != nil {
					return &sweep.TrialError{Trial: i, Err: err}
				}
				out[j] = c
				if famKeys != nil {
					plans.Put(famKeys[f], &plancache.Scenario{
						Tasks:    c.tasks,
						BoundTPS: c.boundTPS,
						Limiting: c.limiting,
						Makespan: c.makespan,
					})
				}
			}
			return nil
		},
		progressFn(spec.Count, emit, func(c corpusScenario) (float64, bool) { return c.makespan, true }))
	if err != nil {
		return nil, err
	}

	type famAgg struct {
		scenarios int
		tasks     int
		sumBound  float64
		sumMake   float64
	}
	perFam := make(map[string]*famAgg, len(families))
	makespans := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		fa := perFam[sc.family]
		if fa == nil {
			fa = &famAgg{}
			perFam[sc.family] = fa
		}
		fa.scenarios++
		fa.tasks += sc.tasks
		fa.sumBound += sc.boundTPS
		fa.sumMake += sc.makespan
		makespans[i] = sc.makespan
	}
	famTbl := report.NewTable(
		fmt.Sprintf("Generated corpus on %s: %d scenarios, seed %d", m.Name, spec.Count, spec.Seed),
		"family", "scenarios", "tasks", "mean bound TPS", "mean makespan (s)")
	seen := map[string]bool{}
	for _, fam := range families {
		if seen[fam] {
			continue
		}
		seen[fam] = true
		fa := perFam[fam]
		if fa == nil {
			continue
		}
		n := float64(fa.scenarios)
		if err := famTbl.AddRowf(fam, fmt.Sprint(fa.scenarios), fmt.Sprint(fa.tasks),
			fa.sumBound/n, fa.sumMake/n); err != nil {
			return nil, err
		}
	}
	s, err := sweep.Summarize(makespans)
	if err != nil {
		return nil, err
	}
	dist := report.NewTable("Corpus makespan distribution (s)",
		"n", "min", "p50", "p90", "p99", "max", "mean", "p99/p50")
	if err := dist.AddRowf(fmt.Sprint(s.N), s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean, s.TailRatio); err != nil {
		return nil, err
	}
	hist := report.NewTable("Binding-ceiling histogram", "ceiling", "scenarios")
	for _, bin := range sweep.Hist(len(scenarios), func(i int) string { return scenarios[i].limiting }) {
		if err := hist.AddRowf(bin.Label, fmt.Sprint(bin.Count)); err != nil {
			return nil, err
		}
	}
	return []*report.Table{famTbl, dist, hist}, nil
}

// referenceScenario runs scenario i through Generate → core.Build →
// sim.Compile → RunScalar: the path the corpus lane must match bit for bit,
// and the one whose errors a corpus request reports.
func referenceScenario(s *wfgen.Spec, m *machine.Machine, i int) (corpusScenario, error) {
	wf, err := wfgen.Generate(s)
	if err != nil {
		return corpusScenario{}, fmt.Errorf("scenario %d: %w", i, err)
	}
	model, err := core.Build(m, wf, core.BuildOptions{})
	if err != nil {
		return corpusScenario{}, fmt.Errorf("scenario %d (%s): %w", i, s.Family, err)
	}
	bound, limit := model.BoundAtWall()
	// Compile + RunScalar instead of sim.Run: the corpus only needs the
	// makespan, and contention-free scenarios resolve through the plan's
	// analytic longest-path pass without an event loop.
	plan, err := sim.Compile(wf, nil, sim.Config{Machine: m})
	if err != nil {
		return corpusScenario{}, fmt.Errorf("scenario %d (%s): %w", i, s.Family, err)
	}
	br, err := plan.RunScalar(sim.Trial{})
	if err != nil {
		return corpusScenario{}, fmt.Errorf("scenario %d (%s): %w", i, s.Family, err)
	}
	return corpusScenario{
		family: s.Family,
		tasks:  wf.TotalTasks(),
		// Bin the histogram on the limiting resource, not the full ceiling
		// name: names embed per-scenario volumes, so each would be its own
		// bin.
		boundTPS: bound,
		limiting: limit.Resource.String(),
		makespan: br.Makespan,
	}, nil
}

// work converts the unit strings into a workflow work vector.
func (w *WorkSpec) work() (workflow.Work, error) {
	var out workflow.Work
	if w == nil {
		return out, nil
	}
	var err error
	parseBytes := func(dst *units.Bytes, s, what string) {
		if err != nil || s == "" {
			return
		}
		if *dst, err = units.ParseBytes(s); err != nil {
			err = fmt.Errorf("work %s: %w", what, err)
		}
	}
	if w.Flops != "" {
		if out.Flops, err = units.ParseFlops(w.Flops); err != nil {
			return out, fmt.Errorf("work flops: %w", err)
		}
	}
	parseBytes(&out.MemBytes, w.Mem, "mem")
	parseBytes(&out.PCIeBytes, w.PCIe, "pcie")
	parseBytes(&out.NetworkBytes, w.Net, "net")
	parseBytes(&out.FSBytes, w.FS, "fs")
	parseBytes(&out.ExternalBytes, w.External, "external")
	return out, err
}

// Example returns a ready-to-edit template spec for the kind.
func Example(kind string) (*Spec, error) {
	switch kind {
	case "montecarlo":
		return &Spec{
			Kind: "montecarlo", Case: "lcls-cori", Trials: 10000, Seed: 7, Streams: 5,
			Sampler: &SamplerSpec{Model: "twostate", Base: "1 GB/s", Degraded: "0.2 GB/s", PBad: 0.4},
		}, nil
	case "grid":
		return &Spec{
			Kind: "grid", Case: "lcls-cori", P: 5,
			Resources:   []ResourceAxisSpec{{Resource: "memory", Factors: []float64{1, 2, 10}}},
			WallFactors: []float64{1, 2},
			IntraTask:   []IntraTaskOptSpec{{K: 2, Efficiency: 0.9}},
		}, nil
	case "survey":
		return &Spec{
			Kind: "survey", Machine: "perlmutter", Partition: "cpu",
			Widths: []int{4, 8, 16}, Depths: []int{2, 3}, NodesPerTask: 2,
			Work: &WorkSpec{Flops: "5 TFLOP", FS: "100 GB"},
		}, nil
	case "failures":
		return &Spec{
			Kind: "failures", Case: "lcls-cori", Trials: 200, Seed: 7,
			Failure: &failure.Spec{
				TaskFailProb: 0.02,
				RestageRate:  "1 GB/s",
				Retry:        &failure.RetrySpec{MaxAttempts: 5, BackoffSeconds: 1, BackoffFactor: 2},
			},
		}, nil
	case "corpus":
		return &Spec{
			Kind: "corpus", Machine: "perlmutter-numa", Count: 1000, Seed: 11,
			Template: &wfgen.Spec{Width: 8, Depth: 4, CV: 0.4, Payload: "1 GB"},
		}, nil
	default:
		return nil, fmt.Errorf("unknown example %q (want montecarlo, grid, survey, failures, or corpus)", kind)
	}
}
