package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"wroofline/internal/engine"
	"wroofline/internal/failure"
	"wroofline/internal/machine"
	"wroofline/internal/resources"
	"wroofline/internal/trace"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

// Plan is a workflow compiled for repeated simulation. Compile resolves and
// validates everything that is identical across Monte Carlo trials — phase
// programs, the dependency structure as index slices, link bandwidths, the
// partition — so each Run only touches per-trial mutable state, drawn from
// a package-level sync.Pool of scratch runs that belong to no plan (engine,
// node pool, links, the per-task state table, and the callback tables are
// all reused across trials and plans).
//
// A plan is a Shape (the work-free half) bound to per-task programs (see
// Shape.Bind). It is immutable after Compile apart from its trial memo, a
// bounded cache of pure results (failure-free trial scalars keyed by their
// resolved inputs; see RunBatch), and safe for concurrent Run and RunBatch
// calls from multiple goroutines; each call checks out its own scratch.
type Plan struct {
	shape

	programs []Program
	slab     Program   // backing storage of the default programs
	staged   []float64 // per-task external+FS payload of the nominal program
	phOff    []int     // phase slot offsets: task i's phase j is slot phOff[i]+j
	slotTask []int32   // the task index owning each phase slot
	slots    int       // total phase slots (phOff[len(tasks)])
	// slotSec is each node phase slot's nominal duration (nodePhaseSeconds
	// of the program's phase); external and FS slots hold 0. Attempts that
	// run the nominal program read it instead of recomputing the duration
	// per phase per trial.
	slotSec []float64

	needExternal bool
	needFS       bool
	needBis      bool // network phases exist and the fabric has a bisection limit

	// analytic is the precomputed longest-path result for plans the analytic
	// fast path accepts (contention-free, failure-free — see analytic.go);
	// nil when the plan needs the event loop.
	analytic *BatchResult

	// memo caches failure-free batch results across RunBatch calls.
	memo trialMemo
}

// Trial selects the per-trial variations a compiled plan supports: the knobs
// internal/study's Monte Carlo and failure ensembles turn between trials.
// The zero value reruns the plan exactly as compiled.
type Trial struct {
	// OverrideExternal replaces the plan's external bandwidth and per-flow
	// cap for this trial (with Config.ExternalBW semantics: a zero
	// ExternalBW falls back to the machine's external bandwidth, and a zero
	// cap means uncapped).
	OverrideExternal   bool
	ExternalBW         units.ByteRate
	ExternalPerFlowCap units.ByteRate
	// Failures, when non-nil, replaces the compiled Config.Failures — each
	// ensemble trial carries its own seeded model.
	Failures *failure.Model
}

// Compile validates the workflow, programs, and configuration and returns a
// reusable Plan: the workflow's Shape bound to its tasks' programs. It
// reports the same errors Run does.
func Compile(wf *workflow.Workflow, programs map[string]Program, cfg Config) (*Plan, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sim: nil machine")
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	pk, err := cfg.Machine.Peaks(wf.Partition, cfg.ExternalBW)
	if err != nil {
		return nil, err
	}
	for id := range programs {
		if _, err := wf.Task(id); err != nil {
			return nil, fmt.Errorf("sim: program for unknown task %q", id)
		}
	}
	tasks := wf.Tasks()
	var s Shape
	if err := s.init(graphOf(wf, tasks), pk, cfg); err != nil {
		return nil, err
	}
	work := make([]workflow.Work, len(tasks))
	for i, t := range tasks {
		work[i] = t.Work
	}
	p := new(Plan)
	if err := s.bind(p, work, programs); err != nil {
		return nil, err
	}
	return p, nil
}

// resolveTrial applies a Trial's overrides to the compiled configuration:
// the effective failure model (nil when disabled) and the external link
// geometry for this trial. It reports the same errors for both the full and
// the batch executor.
func (p *Plan) resolveTrial(trial Trial) (fm *failure.Model, externalBW, externalCap float64, err error) {
	fm = p.cfg.Failures
	if trial.Failures != nil {
		fm = trial.Failures
	}
	if !fm.Enabled() {
		fm = nil
	} else if fm.Retry.MaxAttempts <= 0 {
		return nil, 0, 0, fmt.Errorf("sim: failure model needs positive max attempts, got %d", fm.Retry.MaxAttempts)
	}

	externalBW, externalCap = float64(p.peaks.External), float64(p.cfg.ExternalPerFlowCap)
	if trial.OverrideExternal {
		ext := p.cfg.Machine.ExternalPeak(trial.ExternalBW)
		if p.needExternal && ext <= 0 {
			return nil, 0, 0, fmt.Errorf("sim: %w", p.peaks.NoPeak(p.name, "external"))
		}
		externalBW = float64(ext)
		externalCap = float64(trial.ExternalPerFlowCap)
	}
	return fm, externalBW, externalCap, nil
}

// Run executes one trial of the compiled plan. Concurrent calls are safe;
// per-trial state comes from the shared scratch pool.
func (p *Plan) Run(trial Trial) (*Result, error) {
	fm, externalBW, externalCap, err := p.resolveTrial(trial)
	if err != nil {
		return nil, err
	}

	r := getTrialRun(p)
	res, err := r.run(p, fm, externalBW, externalCap)
	r.release()
	return res, err
}

// trialPool holds scratch runs. A scratch belongs to no plan: getTrialRun
// binds it to one for the length of a call, and release unbinds it.
var trialPool = sync.Pool{New: func() any { return &trialRun{eng: engine.New()} }}

// getTrialRun checks out a scratch bound to p.
func getTrialRun(p *Plan) *trialRun {
	r := trialPool.Get().(*trialRun)
	r.bind(p)
	return r
}

// bind points the scratch at p: the callback tables grow to cover p's tasks
// and phase slots (they only ever grow, so a warm scratch serves any plan
// without building closures), and the per-trial tables are resliced to p's
// size.
func (r *trialRun) bind(p *Plan) {
	r.plan = p
	n := p.total
	for i := len(r.startcb); i < n; i++ {
		r.startcb = append(r.startcb, func() { r.startAttempt(i) })
		r.retrycb = append(r.retrycb, func() { r.submit(i) })
	}
	for k := len(r.donecb); k < p.slots; k++ {
		r.donecb = append(r.donecb, func() { r.slotDone(k) })
		r.flowcb = append(r.flowcb, func(_, _ float64) { r.flowDone(k) })
		r.joincb = append(r.joincb, func() { r.joinDone(k) })
	}
	r.deps = fit(r.deps, n)
	r.states = fit(r.states, n)
	r.results = fit(r.results, n)
	r.begins = fit(r.begins, p.slots)
	r.joins = fit(r.joins, p.slots)
}

// fit reslices s to length n, growing the backing array when it is too
// short. Elements keep whatever an earlier use left; callers reset what
// they read.
func fit[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// release detaches everything that escaped into a Result (or is per-trial),
// unbinds the plan and returns the scratch to the pool.
func (r *trialRun) release() {
	r.plan = nil
	r.rec = nil
	r.retrySeconds = nil
	r.fm = nil
	r.faults = nil
	r.failure = nil
	trialPool.Put(r)
}

// trialRun is the mutable per-trial state: the pooled counterpart of a
// compiled Plan. All task-keyed state is indexed by the bound plan's task
// order; all phase-keyed state by its flat phase-slot numbering
// (phOff[i]+j). The callback tables (startcb/retrycb/donecb/flowcb/joincb)
// close over a task index or a phase slot only, never over a plan, so they
// are built once per index and reused by every trial of every plan: the
// steady-state event loop allocates no closures at all.
type trialRun struct {
	plan *Plan
	eng  *engine.Engine
	pool *resources.Pool
	// The links the bound plan uses: nil when it stages no external data,
	// touches no file system, or its fabric has no bisection limit.
	external *resources.Link
	fs       *resources.Link
	bis      *resources.Link
	// The links this scratch owns, created on first use and reset per trial;
	// a plan's trial activates only the ones it needs.
	extLink, fsLink, bisLink *resources.Link

	// rec stores spans for the full Result path; nil in scalar (batch) mode,
	// where only the aggregates below are tracked. Both modes validate every
	// span with trace.Validate, so errors are identical.
	rec      *trace.Recorder
	minStart float64
	maxEnd   float64
	spans    int

	deps      []int
	states    []taskState
	results   []TaskResult
	completed int
	failure   error

	// fm is the fault model (nil when disabled); faults drives node outages.
	fm           *failure.Model
	faults       *nodeFaults
	retries      int
	retrySeconds map[string]float64
	scalarRetry  map[string]float64 // reused retrySeconds storage for scalar trials

	// Persistent callback tables, indexed by task (startcb/retrycb) or phase
	// slot (the rest), possibly longer than the bound plan needs. begins
	// holds each in-flight phase's start time; joins counts a bisection
	// network phase's outstanding completions.
	startcb []func()
	retrycb []func()
	donecb  []func()
	flowcb  []func(float64, float64)
	joincb  []func()
	begins  []float64
	joins   []int32
}

// taskState tracks a task's in-flight background phases and whether the
// foreground chain has finished, plus the failure-model bookkeeping
// (attempt counts, checkpoint progress, the task's fault stream). Without a
// fault model only started/background/chainDone/prog ever change.
type taskState struct {
	// started distinguishes the zero value from an initialized state; the
	// first attempt initializes on demand.
	started    bool
	background int
	chainDone  bool

	// prog is the current attempt's program: the plan's nominal program, or
	// the scaled buffer for partial (failed/checkpoint-resumed) attempts.
	prog Program
	// nominal reports that prog is the plan's own program, whose node phase
	// durations are precomputed in Plan.slotSec.
	nominal bool

	// attempt counts attempts so far (1 on the first run).
	attempt int
	// remaining is the fraction of nominal work still to do (1 initially;
	// shrinks only under checkpointed retries).
	remaining float64
	// doomed marks the current attempt as failing at fraction frac of its
	// planned work, both drawn from stream at attempt start.
	doomed bool
	frac   float64
	// firstStart is the first attempt's start time — the task window origin.
	firstStart float64
	// stream is the task's fault stream, seeded on the first attempt when
	// the model has a task failure probability.
	stream failure.Stream
	// scaled is the reusable buffer scaleInto fills for partial attempts, so
	// retries do not allocate a program copy. Attempts of one task are
	// strictly sequential, so one buffer per task suffices.
	scaled Program
}

// scaleInto fills the state's scaled buffer with the program's phases scaled
// by factor — the partial execution of a failed or checkpoint-resumed
// attempt.
func (st *taskState) scaleInto(p Program, factor float64) Program {
	buf := st.scaled[:0]
	for _, ph := range p {
		ph.Bytes = units.Bytes(float64(ph.Bytes) * factor)
		ph.Flops = units.Flops(float64(ph.Flops) * factor)
		ph.Seconds *= factor
		buf = append(buf, ph)
	}
	st.scaled = buf
	return buf
}

// simulate prepares the scratch and drains one trial's event loop. In
// scalar mode no Recorder is attached: spans collapse into min-start /
// max-end / count as they are recorded.
func (r *trialRun) simulate(p *Plan, fm *failure.Model, externalBW, externalCap float64, scalar bool) error {
	r.eng.Reset()
	r.eng.MaxEvents = p.maxEvents
	if r.pool == nil {
		pool, err := resources.NewPool(r.eng, p.peaks.Partition, p.nodes)
		if err != nil {
			return err
		}
		r.pool = pool
	} else {
		r.pool.Name = p.peaks.Partition
		if err := r.pool.Reset(p.nodes); err != nil {
			return err
		}
	}
	r.external, r.fs, r.bis = nil, nil, nil
	var err error
	if p.needExternal {
		if r.external, err = r.link(&r.extLink, "external", externalBW, externalCap); err != nil {
			return err
		}
	}
	if p.needFS {
		if r.fs, err = r.link(&r.fsLink, "filesystem", float64(p.peaks.FS), float64(p.cfg.FSPerFlowCap)); err != nil {
			return err
		}
	}
	if p.needBis {
		if r.bis, err = r.link(&r.bisLink, "bisection", float64(p.peaks.Bisection), 0); err != nil {
			return err
		}
	}

	copy(r.deps, p.preds)
	for i := range r.states {
		r.states[i] = taskState{scaled: r.states[i].scaled[:0]}
	}
	r.completed = 0
	r.failure = nil
	r.retries = 0
	if scalar {
		r.rec = nil
		r.minStart = math.Inf(1)
		r.maxEnd = math.Inf(-1)
		r.spans = 0
	} else {
		r.rec = trace.NewRecorder()
	}
	r.fm = fm
	r.faults = nil
	r.retrySeconds = nil
	if fm != nil {
		if scalar {
			if r.scalarRetry == nil {
				r.scalarRetry = make(map[string]float64)
			}
			clear(r.scalarRetry)
			r.retrySeconds = r.scalarRetry
		} else {
			r.retrySeconds = make(map[string]float64)
		}
		if fm.NodeMTBF > 0 {
			r.faults = newNodeFaults(r, p.nodes, p.maxTaskNodes)
		}
	}

	if r.faults != nil {
		r.faults.arm()
	}
	for i := 0; i < p.total; i++ {
		if r.deps[i] == 0 {
			r.submit(i)
		}
	}

	if err := r.eng.Run(); err != nil {
		return err
	}
	if r.failure != nil {
		return r.failure
	}
	if r.completed != p.total {
		return fmt.Errorf("sim: only %d of %d tasks completed (dependency deadlock?)",
			r.completed, p.total)
	}
	return nil
}

// link returns the owned link *l reset to the trial's geometry, creating it
// on first use.
func (r *trialRun) link(l **resources.Link, name string, bw, perFlowCap float64) (*resources.Link, error) {
	if *l == nil {
		nl, err := resources.NewLink(r.eng, name, bw, perFlowCap)
		if err != nil {
			return nil, err
		}
		*l = nl
		return nl, nil
	}
	return *l, (*l).Reset(bw, perFlowCap)
}

// run executes one trial on checked-out scratch and builds the full Result.
func (r *trialRun) run(p *Plan, fm *failure.Model, externalBW, externalCap float64) (*Result, error) {
	if err := r.simulate(p, fm, externalBW, externalCap, false); err != nil {
		return nil, err
	}

	mk := r.rec.Makespan()
	res := &Result{
		Makespan:       mk,
		Tasks:          make(map[string]TaskResult, p.total),
		Recorder:       r.rec,
		PeakNodesInUse: r.pool.PeakInUse(),
	}
	for i, id := range p.ids {
		res.Tasks[id] = r.results[i]
	}
	if mk > 0 {
		res.Throughput = float64(p.total) / mk
	}
	if r.fm != nil {
		res.Attempts = make(map[string]int, p.total)
		for i, id := range p.ids {
			if r.states[i].started {
				res.Attempts[id] = r.states[i].attempt
			}
		}
		res.Retries = r.retries
		res.RetrySeconds = r.retrySeconds
		if r.faults != nil {
			res.NodeFailures = r.faults.failures
		}
	}
	return res, nil
}

// fail records the first error; the engine keeps draining but the run
// reports the failure. The node-fault process stops so the drain is finite.
func (r *trialRun) fail(err error) {
	if r.failure == nil {
		r.failure = err
	}
	if r.faults != nil {
		r.faults.stop()
	}
}

// record validates and accounts one span: appended to the Recorder on the
// full path, collapsed into the min/max aggregates in scalar mode.
func (r *trialRun) record(task, phase string, start, end float64) bool {
	s := trace.Span{Task: task, Phase: phase, Start: start, End: end}
	if r.rec != nil {
		if err := r.rec.Record(s); err != nil {
			r.fail(err)
			return false
		}
		return true
	}
	if err := trace.Validate(s); err != nil {
		r.fail(err)
		return false
	}
	if start < r.minStart {
		r.minStart = start
	}
	if end > r.maxEnd {
		r.maxEnd = end
	}
	r.spans++
	return true
}

// submit queues the task for node allocation.
func (r *trialRun) submit(i int) {
	if err := r.pool.Acquire(r.plan.taskNodes[i], r.startcb[i]); err != nil {
		r.fail(err)
	}
}

// startAttempt begins the next attempt of a task that holds its nodes. With
// no fault model this is exactly the pre-failure execution path: one
// attempt, the unmodified program.
func (r *trialRun) startAttempt(i int) {
	start := r.eng.Now()
	st := &r.states[i]
	draws := r.fm != nil && r.fm.TaskFailProb > 0
	if !st.started {
		st.started = true
		st.remaining = 1
		st.firstStart = start
		if draws {
			st.stream = *failure.NewStream(r.fm.Seed ^ r.plan.taskHash[i])
		}
	}
	st.attempt++
	st.background = 0
	st.chainDone = false
	st.doomed = false
	if draws {
		if st.stream.Float64() < r.fm.TaskFailProb {
			st.doomed = true
			st.frac = st.stream.Float64()
		}
	}
	prog := r.plan.programs[i]
	st.nominal = true
	if r.fm != nil {
		// planned = work this attempt would do if it succeeded: the remaining
		// fraction, plus the checkpoint-restart overhead of re-processing
		// completed work. A doomed attempt stops at frac of its plan.
		planned := st.remaining
		if r.fm.Retry.Checkpoint && st.attempt > 1 {
			planned += r.fm.Retry.CheckpointOverhead * (1 - st.remaining)
		}
		factor := planned
		if st.doomed {
			factor *= st.frac
		}
		if factor != 1 {
			prog = st.scaleInto(prog, factor)
			st.nominal = false
		}
	}
	st.prog = prog
	r.execFrom(i, 0)
}

// execFrom runs the current attempt's program from phase j: dispatching
// background phases inline and stopping at the first foreground phase (its
// completion re-enters here at j+1), then completing the task once the
// foreground chain and every background phase are done.
func (r *trialRun) execFrom(i, j int) {
	st := &r.states[i]
	for {
		prog := st.prog
		if j >= len(prog) {
			st.chainDone = true
			r.maybeComplete(i)
			return
		}
		ph := &prog[j]
		k := r.plan.phOff[i] + j
		r.begins[k] = r.eng.Now()
		if ph.Background {
			st.background++
			r.dispatch(i, ph, k)
			// The foreground chain continues immediately.
			j++
			continue
		}
		r.dispatch(i, ph, k)
		return
	}
}

// dispatch starts phase slot k; its completion lands in phaseDone (possibly
// synchronously, for zero-byte transfers).
func (r *trialRun) dispatch(i int, ph *Phase, k int) {
	switch ph.Kind {
	case PhaseExternal:
		r.transfer(r.external, ph, k)
	case PhaseFS:
		r.transfer(r.fs, ph, k)
	case PhaseNetwork:
		r.network(i, ph, k)
	default:
		d, err := r.phaseSeconds(i, ph, k)
		if err != nil {
			r.fail(err)
			return
		}
		if _, err := r.eng.Schedule(d, r.donecb[k]); err != nil {
			r.fail(err)
		}
	}
}

// phaseSeconds is node phase slot k's duration: the plan's precomputed
// slotSec while the attempt runs the nominal program, nodePhaseSeconds for
// scaled attempts.
func (r *trialRun) phaseSeconds(i int, ph *Phase, k int) (float64, error) {
	if r.states[i].nominal {
		return r.plan.slotSec[k], nil
	}
	return r.plan.nodePhaseSeconds(i, ph)
}

// slotDone is donecb's target: phase slot k finished.
func (r *trialRun) slotDone(k int) {
	i := int(r.plan.slotTask[k])
	r.phaseDone(i, k-r.plan.phOff[i], k)
}

// flowDone is flowcb's target: the shared-link flow of phase slot k landed.
// For a network phase that is the fabric leg of a bisection join; for an
// external or file-system phase it finishes the phase.
func (r *trialRun) flowDone(k int) {
	i := int(r.plan.slotTask[k])
	j := k - r.plan.phOff[i]
	if r.states[i].prog[j].Kind == PhaseNetwork {
		r.joinDone(k)
		return
	}
	r.phaseDone(i, j, k)
}

// phaseDone finishes phase j (slot k) of task i: record the span, charge
// doomed time, then either settle the background count or continue the
// foreground chain.
func (r *trialRun) phaseDone(i, j, k int) {
	st := &r.states[i]
	ph := &st.prog[j]
	begin, end := r.begins[k], r.eng.Now()
	if !r.record(r.plan.ids[i], ph.label(), begin, end) {
		return
	}
	if st.doomed {
		// The whole attempt is wasted work; charge it to the phase label.
		r.retrySeconds[ph.label()] += end - begin
	}
	if ph.Background {
		st.background--
		r.maybeComplete(i)
		return
	}
	r.execFrom(i, j+1)
}

// maybeComplete finishes the attempt once nothing is outstanding: a doomed
// attempt re-enters the queue after restage + backoff, a clean one completes
// the task.
func (r *trialRun) maybeComplete(i int) {
	st := &r.states[i]
	if !st.chainDone || st.background != 0 {
		return
	}
	if st.doomed {
		r.failAttempt(i, st)
		return
	}
	r.complete(i)
}

// failAttempt handles a failed attempt: release the nodes, pay the
// payload-dependent restage cost and the policy backoff, then re-enter the
// allocation queue — or give up once attempts are exhausted.
func (r *trialRun) failAttempt(i int, st *taskState) {
	id := r.plan.ids[i]
	r.retries++
	if r.fm.Retry.Checkpoint {
		st.remaining *= 1 - st.frac
	}
	if err := r.pool.Release(r.plan.taskNodes[i]); err != nil {
		r.fail(err)
		return
	}
	if st.attempt >= r.fm.Retry.MaxAttempts {
		r.fail(&exhaustedError{task: id, attempts: st.attempt})
		return
	}
	now := r.eng.Now()
	restage := 0.0
	if r.fm.RestageBytesPerSec > 0 {
		if b := r.plan.staged[i]; b > 0 {
			restage = b / r.fm.RestageBytesPerSec
		}
	}
	var u float64
	if r.fm.Retry.JitterFrac > 0 {
		u = st.stream.Float64()
	}
	backoff := r.fm.Retry.Delay(st.attempt, u)
	if restage > 0 {
		if !r.record(id, "restage", now, now+restage) {
			return
		}
		r.retrySeconds["restage"] += restage
	}
	if backoff > 0 {
		if !r.record(id, "backoff", now+restage, now+restage+backoff) {
			return
		}
		r.retrySeconds["backoff"] += backoff
	}
	if _, err := r.eng.Schedule(restage+backoff, r.retrycb[i]); err != nil {
		r.fail(err)
	}
}

// ErrPermanentFailure matches (errors.Is) the error of a trial in which a
// task failed on every attempt its retry policy allows. The error's message
// names the task and its attempt count.
var ErrPermanentFailure = errors.New("sim: task failed permanently")

// exhaustedError is the permanent-failure error: its message is the task's,
// and it unwraps to ErrPermanentFailure.
type exhaustedError struct {
	task     string
	attempts int
}

func (e *exhaustedError) Error() string {
	return fmt.Sprintf("sim: task %q failed permanently after %d attempts", e.task, e.attempts)
}

func (e *exhaustedError) Unwrap() error { return ErrPermanentFailure }

// transfer moves the phase bytes over a shared link, scaled by efficiency
// (an 0.5-efficient transfer moves bytes/0.5 effective volume).
func (r *trialRun) transfer(link *resources.Link, ph *Phase, k int) {
	if link == nil {
		// Zero-byte phases on an absent link complete immediately.
		if ph.Bytes == 0 {
			r.donecb[k]()
			return
		}
		r.fail(fmt.Errorf("sim: phase %q needs a link that was not configured", ph.label()))
		return
	}
	effective := float64(ph.Bytes) / ph.eff()
	if err := link.Transfer(effective, r.flowcb[k]); err != nil {
		r.fail(err)
	}
}

// network executes a network phase. On a full-bisection fabric (no bis
// link) the per-node NIC injection time is the whole story, exactly as
// before bisection modeling existed. On a Ridgeline fabric the phase also
// pushes its share of cross-bisection traffic through the shared bisection
// link, and completes only when both the injection delay and the fabric
// transfer have finished — concurrent wide phases contend for the fabric
// even when each node's NIC has headroom.
func (r *trialRun) network(i int, ph *Phase, k int) {
	d, err := r.phaseSeconds(i, ph, k)
	if err != nil {
		r.fail(err)
		return
	}
	if r.bis == nil || ph.Bytes == 0 {
		if _, err := r.eng.Schedule(d, r.donecb[k]); err != nil {
			r.fail(err)
		}
		return
	}
	// ph.Bytes is per node; the task injects Nodes x Bytes, of which
	// BisectionShare crosses the cut, inflated by the phase efficiency like
	// every other transfer.
	vol := float64(ph.Bytes) / ph.eff() * float64(r.plan.taskNodes[i]) * machine.BisectionShare
	r.joins[k] = 2
	if _, err := r.eng.Schedule(d, r.joincb[k]); err != nil {
		r.fail(err)
		return
	}
	if err := r.bis.Transfer(vol, r.flowcb[k]); err != nil {
		r.fail(err)
	}
}

// joinDone settles one leg of a bisection network phase slot k (NIC
// injection or fabric transfer); the phase finishes when both have landed.
func (r *trialRun) joinDone(k int) {
	if r.joins[k]--; r.joins[k] == 0 {
		r.slotDone(k)
	}
}

// nodePhaseSeconds computes a node-local phase duration from the
// partition's peaks and the phase efficiency.
func (p *Plan) nodePhaseSeconds(i int, ph *Phase) (float64, error) {
	var peakTime float64
	var resource string
	switch ph.Kind {
	case PhaseNetwork:
		peakTime, resource = units.TimeToMove(ph.Bytes, p.peaks.NIC), "network"
	case PhasePCIe:
		peakTime, resource = units.TimeToMove(ph.Bytes, p.peaks.PCIe), "pcie"
	case PhaseMemory:
		peakTime, resource = units.TimeToMove(ph.Bytes, p.peaks.Mem), "memory"
	case PhaseCompute:
		peakTime, resource = units.TimeToCompute(ph.Flops, p.peaks.Flops), "compute"
	case PhaseFixed:
		return ph.Seconds, nil
	default:
		return 0, fmt.Errorf("sim: task %q: unexpected node phase kind %v", p.ids[i], ph.Kind)
	}
	if math.IsInf(peakTime, 1) {
		return 0, fmt.Errorf("sim: %w", p.peaks.NoPeak(p.name, resource))
	}
	return peakTime / ph.eff(), nil
}

// complete releases nodes, records the window, and unblocks successors.
func (r *trialRun) complete(i int) {
	id := r.plan.ids[i]
	st := &r.states[i]
	end := r.eng.Now()
	r.results[i] = TaskResult{Start: st.firstStart, End: end}
	r.completed++
	// A task with an empty program still leaves a marker span so makespan
	// and Gantt output include it.
	if len(r.plan.programs[i]) == 0 {
		if !r.record(id, "noop", st.firstStart, end) {
			return
		}
	}
	if err := r.pool.Release(r.plan.taskNodes[i]); err != nil {
		r.fail(err)
		return
	}
	if r.faults != nil && r.completed == r.plan.total {
		// The workflow is done; stop injecting outages so the engine drains.
		r.faults.stop()
	}
	for _, succ := range r.plan.succ[r.plan.succOff[i]:r.plan.succOff[i+1]] {
		r.deps[succ]--
		if r.deps[succ] == 0 {
			r.submit(int(succ))
		}
	}
}

// nodeFaults is the node-outage process: exponential interarrivals with
// aggregate mean MTBF/nodes take one node out of service at a time;
// repairs return it after the repair time. The process never takes the
// pool below the widest task's requirement, so capacity loss slows the
// workflow without wedging it.
type nodeFaults struct {
	r        *trialRun
	stream   *failure.Stream
	mean     float64 // aggregate interarrival mean (MTBF / nominal nodes)
	repair   float64
	maxDown  int
	down     int
	failures int
	stopped  bool
	next     *engine.Event
	repairs  map[*engine.Event]struct{}
}

// newNodeFaults builds the process (armed separately, before task submission).
func newNodeFaults(r *trialRun, nodes, maxTaskNodes int) *nodeFaults {
	return &nodeFaults{
		r:       r,
		stream:  failure.NodeStream(r.fm.Seed),
		mean:    r.fm.NodeMTBF / float64(nodes),
		repair:  r.fm.NodeRepair,
		maxDown: nodes - maxTaskNodes,
		repairs: make(map[*engine.Event]struct{}),
	}
}

// arm schedules the next outage.
func (nf *nodeFaults) arm() {
	if nf.stopped {
		return
	}
	ev, err := nf.r.eng.Schedule(nf.stream.Exp(nf.mean), nf.fire)
	if err != nil {
		nf.r.fail(err)
		return
	}
	nf.next = ev
}

// fire takes one node down (when the cap allows), schedules its repair, and
// re-arms.
func (nf *nodeFaults) fire() {
	nf.next = nil
	if nf.stopped {
		return
	}
	if nf.down < nf.maxDown {
		if err := nf.r.pool.Offline(1); err != nil {
			nf.r.fail(err)
			return
		}
		nf.down++
		nf.failures++
		var rev *engine.Event
		rev, err := nf.r.eng.Schedule(nf.repair, func() {
			delete(nf.repairs, rev)
			nf.down--
			if err := nf.r.pool.Online(1); err != nil {
				nf.r.fail(err)
			}
		})
		if err != nil {
			nf.r.fail(err)
			return
		}
		nf.repairs[rev] = struct{}{}
	}
	nf.arm()
}

// stop cancels every pending outage and repair so the engine can drain.
func (nf *nodeFaults) stop() {
	if nf.stopped {
		return
	}
	nf.stopped = true
	if nf.next != nil {
		nf.next.Cancel()
		nf.next = nil
	}
	for ev := range nf.repairs {
		ev.Cancel()
	}
	nf.repairs = nil
}
