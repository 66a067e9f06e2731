package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"wroofline/internal/failure"
)

// BatchResult is the scalar slice of a trial Result: exactly the fields the
// ensemble aggregators consume (makespan, throughput, retry counts, the
// dominant retry label). The batch executor produces it without building the
// span Recorder or the per-task maps a full Result carries, which is where
// most of the per-trial allocation went.
//
// Every field is bit-identical to the corresponding full-Result value for
// the same plan and trial; Result.Scalars is the bridge the differential
// tests compare against.
type BatchResult struct {
	// Makespan is the end-to-end virtual time (first start to last end).
	Makespan float64
	// Throughput is total tasks divided by makespan (0 when makespan is 0).
	Throughput float64
	// Retries counts failed attempts across the run (0 without a fault
	// model).
	Retries int
	// NodeFailures counts node outages injected by the fault process.
	NodeFailures int
	// DominantRetry is Result.DominantRetryLabel: the phase label with the
	// most retry seconds, "none" when the run had none.
	DominantRetry string
}

// Scalars projects a full Result onto the batch executor's output surface.
func (r *Result) Scalars() BatchResult {
	return BatchResult{
		Makespan:      r.Makespan,
		Throughput:    r.Throughput,
		Retries:       r.Retries,
		NodeFailures:  r.NodeFailures,
		DominantRetry: r.DominantRetryLabel(),
	}
}

// Analytic reports whether the compiled plan is eligible for the analytic
// fast path: contention-free and failure-free, so scalar trials skip the
// event loop entirely (see analytic.go for the predicate).
func (p *Plan) Analytic() bool { return p.analytic != nil }

// RunBatch executes len(trials) trials sequentially on one checked-out
// scratch, writing the i-th trial's scalars to out[i]. This is the bulk
// counterpart of Plan.Run for ensemble sweeps: the engine, node pool, links,
// state tables, and callback tables are set up once and reset between
// trials, and no Recorder or Result maps are built, so the steady state
// allocates nothing per trial.
//
// Results are bit-identical to calling Run per trial and reading
// Result.Scalars(), in any batching: a trial's outcome depends only on the
// plan and the Trial value (all randomness is the failure model's seeded
// streams), never on its neighbors in the batch. That determinism also
// licenses the plan's trial memo: a failure-free trial is a pure function of
// its resolved external link geometry, so its result is stored on the plan
// (up to memoEntries distinct geometries) and every later trial with the
// same geometry — in this batch, a later batch, or a later request sharing
// a cached plan — copies it instead of simulating.
//
// A trial that carries a fault model but provably draws no fault (see
// faultFree) is served like a failure-free trial, from the analytic result
// or the memo: its scalars are bit-identical to the model-free run.
//
// Concurrent RunBatch calls (and mixes with Run) are safe. The first trial
// error aborts the batch as a *TrialError; out holds valid results for
// every index before the failing one, so a caller can resume the batch
// after it.
func (p *Plan) RunBatch(trials []Trial, out []BatchResult) error {
	if len(out) < len(trials) {
		return fmt.Errorf("sim: batch of %d trials needs %d result slots, got %d",
			len(trials), len(trials), len(out))
	}
	if len(trials) == 0 {
		return nil
	}
	r := getTrialRun(p)
	err := r.runBatch(p, trials, out)
	r.release()
	return err
}

// TrialError is a RunBatch trial failure: Trial is the failing trial's
// index within the batch passed in, Err its error.
type TrialError struct {
	Trial int
	Err   error
}

func (e *TrialError) Error() string { return fmt.Sprintf("sim: trial %d: %v", e.Trial, e.Err) }

func (e *TrialError) Unwrap() error { return e.Err }

func (r *trialRun) runBatch(p *Plan, trials []Trial, out []BatchResult) error {
	// last is a batch-local copy of the latest memo entry read or stored, so
	// a run of trials with one geometry skips the memo's lock and map.
	var (
		last     BatchResult
		lastKey  memoKey
		haveLast bool
	)
	for idx, trial := range trials {
		fm, externalBW, externalCap, err := p.resolveTrial(trial)
		if err != nil {
			return &TrialError{Trial: idx, Err: err}
		}
		if fm != nil && !p.faultFree(fm) {
			if out[idx], err = r.runScalar(p, fm, externalBW, externalCap); err != nil {
				return &TrialError{Trial: idx, Err: err}
			}
			continue
		}
		if p.analytic != nil {
			out[idx] = *p.analytic
			continue
		}
		// When the plan stages no external data the external geometry is
		// inert, so every failure-free trial shares the zero key.
		var key memoKey
		if p.needExternal {
			key = memoKey{bw: math.Float64bits(externalBW), cap: math.Float64bits(externalCap)}
		}
		if !haveLast || key != lastKey {
			br, ok := p.memo.get(key)
			if !ok {
				if br, err = r.runScalar(p, nil, externalBW, externalCap); err != nil {
					return &TrialError{Trial: idx, Err: err}
				}
				p.memo.put(key, br)
			}
			last, lastKey, haveLast = br, key, true
		}
		out[idx] = last
	}
	return nil
}

// faultFree reports whether an enabled fault model provably injects nothing
// into a trial of p, so the trial's scalars equal the failure-free run's.
// A task's fault stream depends only on (fm.Seed, task ID), and a task
// fails only if its first-attempt draw is below TaskFailProb; with every
// first draw clear and no node faults, each task runs once with its
// nominal program, no retry time accrues, and Retries, NodeFailures and
// DominantRetry take their failure-free values (0, 0, "none").
func (p *Plan) faultFree(fm *failure.Model) bool {
	if fm.NodeMTBF > 0 {
		return false
	}
	for _, h := range p.taskHash {
		if failure.NewStream(fm.Seed^h).Float64() < fm.TaskFailProb {
			return false
		}
	}
	return true
}

// memoEntries bounds a plan's trial memo. The traffic that repeats a
// geometry needs few entries: a two-state Monte Carlo sampler draws two,
// and a plan that stages no external data collapses to one. Continuous
// samplers (lognormal) draw a fresh geometry per trial and never hit, so a
// small bound keeps what they fill to ~1 KB per cached plan; once full the
// memo stops inserting (no eviction) and a miss costs one read-locked
// lookup.
const memoEntries = 16

// memoKey is a failure-free trial's resolved external bandwidth and
// per-flow cap, as float bits.
type memoKey struct{ bw, cap uint64 }

// trialMemo caches failure-free scalar results by resolved trial geometry.
// Entries are never replaced or evicted, so a reader needs only the read
// lock, and a full memo refuses inserts without taking any lock; trials
// whose fault model may draw a fault, and trials with a resolve error,
// never reach it.
type trialMemo struct {
	mu   sync.RWMutex
	m    map[memoKey]BatchResult
	full atomic.Bool
}

func (t *trialMemo) get(k memoKey) (BatchResult, bool) {
	t.mu.RLock()
	br, ok := t.m[k]
	t.mu.RUnlock()
	return br, ok
}

// put stores br under k unless the memo is full.
func (t *trialMemo) put(k memoKey, br BatchResult) {
	if t.full.Load() {
		return
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[memoKey]BatchResult)
	}
	if len(t.m) < memoEntries {
		t.m[k] = br
		t.full.Store(len(t.m) == memoEntries)
	}
	t.mu.Unlock()
}

// RunScalar executes one trial and returns only its scalars — Plan.Run
// without the Result construction, taking the analytic fast path when the
// plan allows it. It reports the same errors as Run.
func (p *Plan) RunScalar(trial Trial) (BatchResult, error) {
	fm, externalBW, externalCap, err := p.resolveTrial(trial)
	if err != nil {
		return BatchResult{}, err
	}
	if fm == nil && p.analytic != nil {
		return *p.analytic, nil
	}
	r := getTrialRun(p)
	br, err := r.runScalar(p, fm, externalBW, externalCap)
	r.release()
	return br, err
}

// runScalar drains one trial in scalar mode and assembles its BatchResult,
// mirroring exactly how trialRun.run derives the same fields for a full
// Result.
func (r *trialRun) runScalar(p *Plan, fm *failure.Model, externalBW, externalCap float64) (BatchResult, error) {
	if err := r.simulate(p, fm, externalBW, externalCap, true); err != nil {
		return BatchResult{}, err
	}
	mk := 0.0
	if r.spans > 0 {
		mk = r.maxEnd - r.minStart
	}
	br := BatchResult{
		Makespan:      mk,
		DominantRetry: dominantRetryLabel(r.retrySeconds),
	}
	if mk > 0 {
		br.Throughput = float64(p.total) / mk
	}
	if r.fm != nil {
		br.Retries = r.retries
		if r.faults != nil {
			br.NodeFailures = r.faults.failures
		}
	}
	return br, nil
}
