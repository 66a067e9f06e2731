package study

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"wroofline/internal/failure"
	"wroofline/internal/report"
	"wroofline/internal/sim"
	"wroofline/internal/sweep"
	"wroofline/internal/wfgen"
)

func failuresSpec(workers int) *Spec {
	return &Spec{
		Kind: "failures", Case: "lcls-cori", Trials: 16, Seed: 7, Workers: workers,
		Failure: &failure.Spec{
			TaskFailProb: 0.05,
			RestageRate:  "1 GB/s",
			Retry:        &failure.RetrySpec{MaxAttempts: 5, BackoffSeconds: 1, BackoffFactor: 2},
		},
	}
}

// renderTables flattens a table list for byte comparison.
func renderTables(t *testing.T, tables []*report.Table) string {
	t.Helper()
	data, err := json.Marshal(tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// tableRows decodes a table's data rows from its canonical JSON.
func tableRows(t *testing.T, tbl *report.Table) [][]string {
	t.Helper()
	data, err := tbl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct{ Rows [][]string }
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	return decoded.Rows
}

func TestFailuresStudyDeterministicAcrossWorkers(t *testing.T) {
	one, err := RunStreamCached(context.Background(), failuresSpec(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunStreamCached(context.Background(), failuresSpec(8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderTables(t, one), renderTables(t, many); a != b {
		t.Fatalf("worker count changed the result bytes:\n%s\nvs\n%s", a, b)
	}
	if len(one) != 4 {
		t.Fatalf("failures study produced %d tables, want 4", len(one))
	}
	if !strings.Contains(one[0].Title, "lcls-cori") || !strings.Contains(one[0].Title, "16 trials") {
		t.Errorf("makespan table title = %q", one[0].Title)
	}
}

func TestFailuresStudyValidation(t *testing.T) {
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "failures", Case: "lcls-cori",
		Failure: &failure.Spec{TaskFailProb: 0.1}}, nil, nil); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "failures", Case: "lcls-cori", Trials: 4}, nil, nil); err == nil {
		t.Error("missing failure block accepted")
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "failures", Case: "no-such-case", Trials: 4,
		Failure: &failure.Spec{TaskFailProb: 0.1}}, nil, nil); err == nil {
		t.Error("unknown case accepted")
	}
	if _, err := RunStreamCached(context.Background(), &Spec{Kind: "failures", Case: "lcls-cori", Trials: 4,
		Failure: &failure.Spec{TaskFailProb: 2}}, nil, nil); err == nil {
		t.Error("invalid failure probability accepted")
	}
}

func TestFailuresSpecCanonicalCoversFailureParams(t *testing.T) {
	// The content-addressed cache keys on Canonical bytes, so any failure
	// parameter change must change them.
	a, err := failuresSpec(0).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b := failuresSpec(0)
	b.Failure.TaskFailProb = 0.06
	bc, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(bc) {
		t.Fatal("task_fail_prob change did not change the canonical bytes")
	}
	c := failuresSpec(0)
	c.Failure.Retry.MaxAttempts = 6
	cc, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(cc) {
		t.Fatal("retry change did not change the canonical bytes")
	}
	// Workers is normalized away, as for every other kind.
	w, err := failuresSpec(9).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(w) {
		t.Fatal("worker count leaked into the canonical bytes")
	}
}

func TestFailuresExampleRoundTrips(t *testing.T) {
	ex, err := Example("failures")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("example does not re-parse strictly: %v", err)
	}
	if spec.Kind != "failures" || spec.Failure == nil {
		t.Fatalf("round-tripped example = %+v", spec)
	}
	// The template must actually run.
	spec.Trials = 4
	if _, err := RunStreamCached(context.Background(), spec, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// unfinishedSpec is a failure ensemble in which some trials exhaust their
// attempts: at p = 0.3 a task fails all three attempts with probability
// 0.3^3, so about one trial of six tasks in seven is unfinished — more
// than the trials whose retries hammered backoff or that never retried,
// so the unfinished bin sorts into the middle of the histogram.
func unfinishedSpec(workers, batch int) *Spec {
	return &Spec{
		Kind: "failures", Case: "lcls-cori", Trials: 400, Seed: 7, Workers: workers, Batch: batch,
		Failure: &failure.Spec{TaskFailProb: 0.3, RestageRate: "1 GB/s",
			Retry: &failure.RetrySpec{MaxAttempts: 3}},
	}
}

// TestFailuresUnfinishedBin: trials that exhaust their attempts land in an
// "unfinished" histogram bin instead of failing the ensemble; the makespan
// and retry aggregates and every progress snapshot count finished trials
// only; and the bytes are the same at any worker count, batch size, and
// streamed or buffered.
func TestFailuresUnfinishedBin(t *testing.T) {
	spec := unfinishedSpec(1, 0)
	// Independent reference: which trials exhaust, one trial at a time.
	plan, err := compileCase(nil, spec.Case)
	if err != nil {
		t.Fatal(err)
	}
	model, err := spec.Failure.Compile()
	if err != nil {
		t.Fatal(err)
	}
	unfinished := make([]bool, spec.Trials)
	want := 0
	for i := range unfinished {
		m := *model
		m.Seed = sweep.TrialSeed(spec.Seed, i)
		_, err := plan.RunScalar(sim.Trial{Failures: &m})
		if err != nil && !errors.Is(err, sim.ErrPermanentFailure) {
			t.Fatalf("trial %d: %v", i, err)
		}
		if unfinished[i] = err != nil; unfinished[i] {
			want++
		}
	}
	if want == 0 || want == spec.Trials {
		t.Fatalf("%d of %d trials unfinished; the spec must mix both", want, spec.Trials)
	}

	var snaps []Progress
	tables, err := RunStreamCached(context.Background(), spec, nil, func(p Progress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	got := renderTables(t, tables)
	if !strings.Contains(got, fmt.Sprintf(`["unfinished","%d"]`, want)) {
		t.Errorf("histogram lacks the unfinished bin of %d: %s", want, got)
	}
	if n := tableRows(t, tables[0])[0][0]; n != fmt.Sprint(spec.Trials-want) {
		t.Errorf("makespan table n = %s, want %d finished trials", n, spec.Trials-want)
	}
	// Every trial is in exactly one bin, and the bins keep the histogram's
	// order: count descending, then label.
	runs, prev := 0, sweep.HistBin{Count: spec.Trials + 1}
	for _, row := range tableRows(t, tables[3]) {
		bin := sweep.HistBin{Label: row[0]}
		fmt.Sscan(row[1], &bin.Count)
		if bin.Count > prev.Count || bin.Count == prev.Count && bin.Label < prev.Label {
			t.Errorf("histogram bin %+v sorts after %+v", bin, prev)
		}
		runs += bin.Count
		prev = bin
	}
	if runs != spec.Trials {
		t.Errorf("histogram counts %d runs, want %d", runs, spec.Trials)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	for _, p := range snaps {
		finished := 0
		for _, u := range unfinished[:p.Done] {
			if !u {
				finished++
			}
		}
		if p.Summary.N != finished {
			t.Errorf("snapshot at %d: n = %d, want %d finished", p.Done, p.Summary.N, finished)
		}
	}

	for _, g := range [][2]int{{2, 0}, {4, 7}, {1, 1}, {3, 1000}} {
		other, err := RunStreamCached(context.Background(), unfinishedSpec(g[0], g[1]), nil, nil)
		if err != nil {
			t.Fatalf("workers=%d batch=%d: %v", g[0], g[1], err)
		}
		if o := renderTables(t, other); o != got {
			t.Errorf("workers=%d batch=%d changed the bytes:\n%s\nvs\n%s", g[0], g[1], o, got)
		}
	}
}

// TestFailuresAllUnfinishedError: an ensemble that finishes no trial fails
// with trial 0's error, named by its trial index.
func TestFailuresAllUnfinishedError(t *testing.T) {
	for _, batch := range []int{0, 5} {
		spec := &Spec{
			Kind: "failures", Case: "lcls-cori", Trials: 20, Seed: 7, Workers: 1, Batch: batch,
			Failure: &failure.Spec{TaskFailProb: 0.99, Retry: &failure.RetrySpec{MaxAttempts: 2}},
		}
		_, err := RunStreamCached(context.Background(), spec, nil, nil)
		if err == nil || !errors.Is(err, sim.ErrPermanentFailure) {
			t.Fatalf("batch %d: err = %v, want a permanent failure", batch, err)
		}
		const prefix = "sweep: trial 0: sim: trial 0: sim: task "
		if !strings.HasPrefix(err.Error(), prefix) || !strings.HasSuffix(err.Error(), "failed permanently after 2 attempts") {
			t.Errorf("batch %d: err = %q, want %q...", batch, err, prefix)
		}
	}
}

// TestEnsembleErrorBytesAcrossGeometry: a failing ensemble reports the same
// error bytes at any worker count and batch size — a corpus whose every
// scenario is infeasible, and a failures ensemble that finishes no trial.
func TestEnsembleErrorBytesAcrossGeometry(t *testing.T) {
	specs := map[string]func(workers, batch int) *Spec{
		"corpus": func(workers, batch int) *Spec {
			return &Spec{Kind: "corpus", Machine: "perlmutter", Count: 80, Workers: workers, Batch: batch,
				Template: &wfgen.Spec{NodesPerTask: 4000}}
		},
		"failures": func(workers, batch int) *Spec {
			return &Spec{Kind: "failures", Case: "lcls-cori", Trials: 40, Seed: 7, Workers: workers, Batch: batch,
				Failure: &failure.Spec{TaskFailProb: 0.99, Retry: &failure.RetrySpec{MaxAttempts: 2}}}
		},
	}
	for kind, spec := range specs {
		var want string
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{0, 1, 7} {
				_, err := RunStreamCached(context.Background(), spec(workers, batch), nil, nil)
				if err == nil {
					t.Fatalf("%s workers=%d batch=%d: want an error", kind, workers, batch)
				}
				if want == "" {
					want = err.Error()
					if !strings.HasPrefix(want, "sweep: trial 0: ") {
						t.Errorf("%s: err = %q, want trial 0 named", kind, want)
					}
				} else if got := err.Error(); got != want {
					t.Errorf("%s workers=%d batch=%d: err = %q, want %q", kind, workers, batch, got, want)
				}
			}
		}
	}
}
