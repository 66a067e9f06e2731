package sim

import (
	"math"
	"sync"
)

// The analytic fast path.
//
// A discrete-event simulation of a plan is only *necessary* when trials can
// interact with shared, stateful resources: shared links whose fair-share
// rates depend on which flows overlap, a node pool that can queue tasks, or
// a fault process that perturbs execution. When none of those apply, every
// phase has a fixed duration known at compile time and the trial reduces to
// a longest-path computation over the dependency DAG — the event heap adds
// bookkeeping but no information.
//
// computeAnalytic decides eligibility once at Compile and, when eligible,
// runs the longest-path pass once; the result is shared by every
// failure-free scalar trial of the plan. The predicate is deliberately
// conservative — it must be *provably* bit-identical to the event loop, not
// merely close:
//
//   - No failure model compiled in. (Trials carrying their own enabled model
//     fall back to the event loop at run time; see RunBatch/RunScalar.)
//   - No shared-link flows at all (needExternal/needFS/needBis false). Even
//     a single flow on an otherwise idle link is excluded: the link
//     integrates a piecewise virtual work clock, and its float rounding is
//     only reproduced by running it.
//   - The whole workflow fits in the node pool at once (sum of task widths
//     ≤ pool nodes), so Acquire always grants synchronously and no task
//     ever waits in the allocation queue: each task starts exactly when its
//     last predecessor ends.
//   - The phase count fits the MaxEvents budget and every phase duration
//     resolves without error, so a plan the event loop would reject is
//     never silently "succeeded" analytically.
//
// Under those conditions the event loop computes every phase end as
// now + d in event-time arithmetic, which is exactly the float sequence the
// longest-path pass below replays, so the makespan matches bit for bit —
// the property test wall in analytic_test.go and batch_diff_test.go holds
// the two implementations together.
func (p *Plan) computeAnalytic() {
	if p.cfg.Failures.Enabled() {
		return
	}
	if p.needExternal || p.needFS || p.needBis {
		return
	}
	if p.sumNodes > p.nodes {
		return
	}

	// Event-budget parity: every node phase schedules exactly one engine
	// event; zero-byte external/FS phases complete synchronously without
	// one. (Non-zero external/FS phases are excluded above.)
	var events uint64
	for _, prog := range p.programs {
		for _, ph := range prog {
			if ph.Kind != PhaseExternal && ph.Kind != PhaseFS {
				events++
			}
		}
	}
	if events > p.maxEvents {
		return
	}

	// Longest path in topological order (Kahn over the compiled pred counts
	// and successor lists). ready[i] is task i's start: the max end over its
	// predecessors, exactly the engine time at which its last dependency
	// completes and submits it.
	sc := analyticPool.Get().(*analyticScratch)
	defer analyticPool.Put(sc)
	n := p.total
	indeg := fit(sc.indeg, n)
	copy(indeg, p.preds)
	ready := fit(sc.ready, n)
	clear(ready)
	queue := fit(sc.queue, n)[:0]
	sc.indeg, sc.ready, sc.queue = indeg, ready, queue
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	minStart, maxEnd := math.Inf(1), math.Inf(-1)
	processed := 0
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		processed++
		start := ready[i]
		// Replay the attempt's float arithmetic: the foreground chain
		// accumulates fg += d (each phase begins at the engine time the
		// previous one ended), background phases end at their begin + d,
		// and the task ends at the max over all phase ends.
		fg, end := start, start
		off := p.phOff[i]
		for j, ph := range p.programs[i] {
			d := p.slotSec[off+j]
			if ph.Background {
				if e := fg + d; e > end {
					end = e
				}
			} else {
				fg += d
				if fg > end {
					end = fg
				}
			}
		}
		if start < minStart {
			minStart = start
		}
		if end > maxEnd {
			maxEnd = end
		}
		for _, s := range p.succ[p.succOff[i]:p.succOff[i+1]] {
			if ready[s] < end {
				ready[s] = end
			}
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, int(s))
			}
		}
	}
	if processed != p.total {
		// Unreachable tasks: the event loop reports the dependency deadlock.
		return
	}

	mk := 0.0
	if p.total > 0 {
		mk = maxEnd - minStart
	}
	br := BatchResult{Makespan: mk, DominantRetry: "none"}
	if mk > 0 {
		br.Throughput = float64(p.total) / mk
	}
	p.analytic = &br
}

// analyticScratch is the longest-path pass's working storage: in-degrees,
// ready times and the Kahn queue. Passes take it from analyticPool, so
// binding a plan allocates none of it.
type analyticScratch struct {
	ready        []float64
	indeg, queue []int
}

var analyticPool = sync.Pool{New: func() any { return new(analyticScratch) }}
