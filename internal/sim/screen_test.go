package sim

import (
	"errors"
	"fmt"
	"testing"

	"wroofline/internal/failure"
	"wroofline/internal/sweep"
)

// TestFaultFreeScreenExact holds the fault-free screen to its definition on
// the full executor: every trial it passes runs each task exactly once with
// no retry and the failure-free scalars, and with node MTBF off every trial
// it rejects retries at least once. With node MTBF on it passes nothing.
func TestFaultFreeScreenExact(t *testing.T) {
	plans := []*Plan{stagedPlan(t)}
	for _, c := range []diffCase{
		{FamIdx: 0, MachIdx: 0, Width: 2, Depth: 3, Seed: 3, NoFS: true},    // analytic
		{FamIdx: 3, MachIdx: 1, Width: 3, Depth: 2, Seed: 5, Payload: true}, // FS link
		{FamIdx: 2, MachIdx: 2, Width: 4, Depth: 1, Seed: 9, Avail: 1},      // bisection + queueing
	} {
		plans = append(plans, c.compile(t))
	}
	passed, rejected := 0, 0
	for pi, p := range plans {
		clean, err := p.Run(Trial{})
		if err != nil {
			t.Fatalf("plan %d: failure-free run: %v", pi, err)
		}
		for _, prob := range []float64{0.005, 0.02, 0.1, 0.3} {
			for seed := uint64(0); seed < 60; seed++ {
				fm, err := (&failure.Spec{TaskFailProb: prob, RestageRate: "1 GB/s",
					Seed: sweep.TrialSeed(seed, pi), Retry: &failure.RetrySpec{MaxAttempts: 8}}).Compile()
				if err != nil {
					t.Fatal(err)
				}
				ok := p.faultFree(fm)
				res, err := p.Run(Trial{Failures: fm})
				if !ok {
					rejected++
					if err != nil && !errors.Is(err, ErrPermanentFailure) {
						t.Fatalf("plan %d p=%v seed %d: rejected trial: %v", pi, prob, seed, err)
					}
					if err == nil && res.Retries < 1 {
						t.Fatalf("plan %d p=%v seed %d: screen rejected a trial that never retried", pi, prob, seed)
					}
					continue
				}
				passed++
				if err != nil {
					t.Fatalf("plan %d p=%v seed %d: passed trial failed: %v", pi, prob, seed, err)
				}
				if res.Retries != 0 || len(res.Attempts) != p.total {
					t.Fatalf("plan %d p=%v seed %d: passed trial retried %d times over %d attempt counts",
						pi, prob, seed, res.Retries, len(res.Attempts))
				}
				for id, a := range res.Attempts {
					if a != 1 {
						t.Fatalf("plan %d p=%v seed %d: passed trial ran task %q %d times", pi, prob, seed, id, a)
					}
				}
				if res.Scalars() != clean.Scalars() {
					t.Fatalf("plan %d p=%v seed %d: passed trial %+v != failure-free %+v",
						pi, prob, seed, res.Scalars(), clean.Scalars())
				}
			}
		}
		withNodes, err := (&failure.Spec{TaskFailProb: 0.005, NodeMTBFSeconds: 1e9}).Compile()
		if err != nil {
			t.Fatal(err)
		}
		if p.faultFree(withNodes) {
			t.Fatalf("plan %d: screen passed a model with node faults", pi)
		}
	}
	if passed == 0 || rejected == 0 {
		t.Fatalf("screen passed %d and rejected %d trials; the test must exercise both", passed, rejected)
	}
}

// TestRunBatchExhaustedTrialError pins the batch error contract a failure
// ensemble resumes on: an exhausted trial aborts the batch as a
// *TrialError carrying its index, the error matches ErrPermanentFailure
// and reads as the per-trial error behind a "sim: trial i:" prefix, every
// earlier result is valid, and running the rest of the batch gives what the
// per-trial reference gives.
func TestRunBatchExhaustedTrialError(t *testing.T) {
	p := stagedPlan(t)
	var trials []Trial
	for seed := uint64(0); len(trials) < 12; seed++ {
		fm, err := (&failure.Spec{TaskFailProb: 0.5, Seed: seed,
			Retry: &failure.RetrySpec{MaxAttempts: 2, BackoffSeconds: 0.5}}).Compile()
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, Trial{Failures: fm})
	}
	out := make([]BatchResult, len(trials))
	exhausted := 0
	for start := 0; start < len(trials); {
		err := p.RunBatch(trials[start:], out[start:])
		end := len(trials)
		if err != nil {
			var te *TrialError
			if !errors.As(err, &te) || !errors.Is(err, ErrPermanentFailure) {
				t.Fatalf("batch from %d: error %v is not an exhausted *TrialError", start, err)
			}
			end = start + te.Trial
			_, refErr := p.Run(trials[end])
			if refErr == nil || err.Error() != fmt.Sprintf("sim: trial %d: %v", te.Trial, refErr) {
				t.Fatalf("trial %d: batch error %q, reference error %v", end, err, refErr)
			}
			exhausted++
		}
		for i := start; i < end; i++ {
			res, err := p.Run(trials[i])
			if err != nil {
				t.Fatalf("trial %d: reference failed (%v) but the batch ran past it", i, err)
			}
			if out[i] != res.Scalars() {
				t.Fatalf("trial %d: batch %+v != reference %+v", i, out[i], res.Scalars())
			}
		}
		start = end + 1
	}
	if exhausted == 0 {
		t.Fatal("no trial exhausted its attempts; the test is not covering the error path")
	}
}
