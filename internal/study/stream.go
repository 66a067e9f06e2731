package study

import (
	"context"

	"wroofline/internal/plancache"
	"wroofline/internal/report"
	"wroofline/internal/sweep"
)

// Progress is one partial-result snapshot of a running ensemble study: the
// summary of the first Done trials (a stable, deterministic prefix — see
// sweep.MapChunksProgress) out of Total. Because the prefix is always
// trials [0, Done) regardless of worker count or chunk geometry, a given
// Done value carries the same Summary on every run of the same spec.
type Progress struct {
	// Done counts completed prefix trials; Total is the ensemble size.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Summary condenses the makespans of trials [0, Done).
	Summary sweep.Summary `json:"summary"`
}

// RunStreamCached executes the spec and returns the report tables in print
// order. It is the one study entry point: buffered and streamed delivery,
// cached and uncached, all run the same runner per kind, which is what keeps
// streamed final results byte-identical to buffered ones.
//
// A non-nil emit receives partial makespan summaries as the completed-trial
// frontier advances. Emission is throttled: the first advance below Total
// fires, then one snapshot per max(⌈Total/64⌉, 64) further trials, so a run
// emits at most 64 snapshots and an ensemble of 64 trials or fewer exactly
// one (none if its first advance completes it). Calls are serial with
// strictly increasing Done, and Done < Total always holds — the final
// aggregate is the returned tables, byte-identical to a run with a nil
// emit, not a progress event. Only the ensemble kinds (montecarlo,
// failures, corpus) stream; grid and survey produce their tables with no
// intermediate snapshots. A nil emit streams nothing.
//
// emit runs on a sweep worker goroutine while the completion frontier is
// locked: it must be brief and must not call back into the study.
//
// plans is the second-level plan cache: the ensemble kinds consult it for
// their expensive construction artifacts (compiled case plans, corpus
// shapes, CV 0 corpus outcomes) before generating, building, and compiling
// afresh, and fill it on miss. Because compiled plans are immutable and
// concurrent-safe and construction is a pure function of the cache key, a
// hit evaluation is bit-identical to a cold one at any worker x batch
// geometry — TestPlanCacheDifferential proves it. A nil cache disables
// reuse entirely (the pre-cache behavior).
func RunStreamCached(ctx context.Context, spec *Spec, plans *plancache.Cache, emit func(Progress)) ([]*report.Table, error) {
	switch spec.Kind {
	case "montecarlo":
		return runMonteCarlo(ctx, spec, plans, emit)
	case "grid":
		return runGrid(ctx, spec)
	case "survey":
		return runSurvey(ctx, spec)
	case "failures":
		return runFailures(ctx, spec, plans, emit)
	case "corpus":
		return runCorpus(ctx, spec, plans, emit)
	default:
		return nil, errUnknownKind(spec.Kind)
	}
}

// progressThrottle picks which frontier advances become Progress events:
// the first advance below total always fires (that is the
// time-to-first-result), then one event per max(⌈total/64⌉, minProgressStep)
// further trials, and the completed ensemble never fires (the final tables
// carry it). Consecutive events are at least one step apart and the last
// lies below total, so a run emits at most 64 events. Calls arrive
// serialized under the sweep frontier lock, so no internal locking is
// needed.
type progressThrottle struct {
	total int
	step  int
	next  int
}

// minProgressStep is the fewest trials one progress event may stand for. A
// snapshot summarizes the whole prefix and formats it, which costs about as
// much as a plan-cache-hit trial, so a small ensemble streams one snapshot
// rather than one per trial.
const minProgressStep = 64

func newProgressThrottle(total int) *progressThrottle {
	step := max((total+63)/64, minProgressStep)
	return &progressThrottle{total: total, step: step, next: 1}
}

// take reports whether a snapshot at done trials should be emitted and, if
// so, advances the next threshold.
func (t *progressThrottle) take(done int) bool {
	if done < t.next || done >= t.total {
		return false
	}
	t.next = done + t.step
	return true
}

// summaryCap bounds the per-snapshot summarization cost. Summarize sorts
// its input, so resummarizing the whole prefix at every snapshot would
// cost O(snapshots * n log n) — for multi-million-trial ensembles that
// dwarfs the evaluation itself. Beyond the cap the prefix is
// stride-sampled instead; the stride is a function of done alone, so a
// given Done still carries the same Summary at any worker count or chunk
// geometry, and the final tables are computed from the full result set as
// ever.
const summaryCap = 65536

// progressFn adapts a study emit callback to the sweep.MapChunksProgress
// shape for a result type whose makespan value projects out: it throttles,
// summarizes the stable prefix (stride-sampled past summaryCap, with
// Summary.N reporting the full prefix size it estimates), and forwards
// the snapshot. value reports false for a result with no makespan (an
// unfinished failure trial); such results stay out of the summary and its
// N, and a prefix without any makespan emits nothing. A nil emit yields a
// nil callback, turning the progress path off entirely.
func progressFn[T any](total int, emit func(Progress), value func(T) (float64, bool)) func(done int, prefix []T) {
	if emit == nil {
		return nil
	}
	bufCap := total
	if bufCap > summaryCap+1 {
		bufCap = summaryCap + 1
	}
	// The run's snapshot state is one allocation. buf is sized for the
	// largest snapshot and refilled from the prefix at every snapshot, so
	// Summarize sorts it in place; callbacks are serialized under the
	// frontier lock, so the shared buffer needs no locking. counted and kept
	// tally the prefix for stride-sampled snapshots, which still report
	// every kept result in N; prefixes only grow, so each result is tallied
	// once.
	st := &struct {
		th            progressThrottle
		buf           []float64
		counted, kept int
	}{th: *newProgressThrottle(total), buf: make([]float64, 0, bufCap)}
	return func(done int, prefix []T) {
		if !st.th.take(done) {
			return
		}
		stride := 1
		if done > summaryCap {
			stride = (done + summaryCap - 1) / summaryCap
		}
		buf := st.buf[:0]
		for i := 0; i < len(prefix); i += stride {
			if v, ok := value(prefix[i]); ok {
				buf = append(buf, v)
			}
		}
		st.buf = buf
		n := len(buf)
		if stride > 1 {
			for ; st.counted < done; st.counted++ {
				if _, ok := value(prefix[st.counted]); ok {
					st.kept++
				}
			}
			n = st.kept
		}
		s, err := sweep.Summarize(buf)
		if err != nil {
			return
		}
		s.N = n
		emit(Progress{Done: done, Total: total, Summary: s})
	}
}
