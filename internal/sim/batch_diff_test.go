package sim

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"wroofline/internal/failure"
	"wroofline/internal/machine"
	"wroofline/internal/sweep"
	"wroofline/internal/units"
	"wroofline/internal/wfgen"
)

// The batch-executor differential wall: RunBatch and RunScalar must produce
// results byte-identical to per-trial Plan.Run across randomized plans
// drawn from every wfgen topology family, flat/NUMA/bisection machines, and
// failure configurations — including the analytic fast path, trial
// memoization, and every batch/worker geometry.

// diffCase is the raw material testing/quick mutates; diffPlan interprets
// it into a compiled plan plus a trial set.
type diffCase struct {
	FamIdx  uint8
	MachIdx uint8
	Width   uint8
	Depth   uint8
	Seed    uint64
	CV      uint8
	Payload bool
	NoFS    bool
	Avail   uint8 // 0 = full partition, else a small pool that forces queueing
	Fail    uint8 // failure mix selector per trial block
	Trials  uint8
}

var diffMachines = []string{"perlmutter", "perlmutter-numa", "ridgeline"}

// spec renders the wfgen spec for the case.
func (c diffCase) spec() *wfgen.Spec {
	s := &wfgen.Spec{
		Family: wfgen.Families()[int(c.FamIdx)%len(wfgen.Families())],
		Seed:   c.Seed,
		Width:  1 + int(c.Width)%5,
		Depth:  1 + int(c.Depth)%4,
		CV:     float64(c.CV%5) / 10,
	}
	if s.Family == "montage" && s.Width < 2 {
		s.Width = 2
	}
	if c.Payload {
		s.Payload = "64 MB"
	}
	if c.NoFS {
		s.FS = "0"
		s.Payload = "0"
	}
	return s
}

// compile builds the plan for the case (skipping impossible geometries).
func (c diffCase) compile(t testing.TB) *Plan {
	t.Helper()
	m, err := machine.ByName(diffMachines[int(c.MachIdx)%len(diffMachines)])
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	wf, err := wfgen.Generate(c.spec())
	if err != nil {
		t.Fatalf("generate %+v: %v", c, err)
	}
	cfg := Config{Machine: m}
	if c.Avail%4 != 0 {
		// A pool narrower than the workflow forces allocation queueing (and
		// disqualifies the analytic path); keep it at least 2 wide so node
		// faults have headroom.
		cfg.AvailableNodes = 2 + int(c.Avail)%3
	}
	p, err := Compile(wf, nil, cfg)
	if err != nil {
		t.Fatalf("compile %+v: %v", c, err)
	}
	return p
}

// trials builds the case's trial set: failure-free trials first (so the
// memo and analytic paths get coverage), then per-trial seeded failure
// models of increasing severity, then low-probability models whose trials
// the fault-free screen mostly serves from the failure-free path.
func (c diffCase) trials() []Trial {
	n := 1 + int(c.Trials)%5
	out := make([]Trial, 0, n)
	for i := 0; i < n; i++ {
		switch (int(c.Fail) + i) % 8 {
		case 0:
			out = append(out, Trial{})
		case 1:
			// A disabled model must behave exactly like no model.
			out = append(out, Trial{Failures: &failure.Model{}})
		case 2:
			fs := failure.Spec{
				TaskFailProb: 0.25,
				RestageRate:  "1 GB/s",
				Seed:         sweep.TrialSeed(c.Seed, i),
				Retry:        &failure.RetrySpec{MaxAttempts: 4, JitterFrac: 0.3},
			}
			fm, err := fs.Compile()
			if err != nil {
				panic(err)
			}
			out = append(out, Trial{Failures: fm})
		case 4, 5, 6, 7:
			out = append(out, Trial{Failures: lowProbModel((int(c.Fail)+i)%4, sweep.TrialSeed(c.Seed, i))})
		default:
			fs := failure.Spec{
				TaskFailProb:      0.15,
				NodeMTBFSeconds:   80,
				NodeRepairSeconds: 15,
				Seed:              sweep.TrialSeed(c.Seed, i),
				Retry:             &failure.RetrySpec{MaxAttempts: 6, Checkpoint: true},
			}
			fm, err := fs.Compile()
			if err != nil {
				panic(err)
			}
			out = append(out, Trial{Failures: fm})
		}
	}
	return out
}

// lowProbModel compiles the k-th low-probability fault model (k in [0, 4)):
// p 0.005 or 0.02, with and without node MTBF, jitter and checkpointing.
func lowProbModel(k int, seed uint64) *failure.Model {
	fs := failure.Spec{TaskFailProb: 0.005, Seed: seed, Retry: &failure.RetrySpec{MaxAttempts: 5}}
	switch k {
	case 0:
		fs.RestageRate = "1 GB/s"
		fs.Retry.JitterFrac = 0.3
	case 1:
		fs.TaskFailProb = 0.02
		fs.Retry.Checkpoint = true
		fs.Retry.CheckpointOverhead = 0.1
	case 2:
		fs.TaskFailProb = 0.02
		fs.NodeMTBFSeconds = 80
		fs.NodeRepairSeconds = 15
	default:
		fs.NodeMTBFSeconds = 120
		fs.Retry.JitterFrac = 0.5
		fs.Retry.Checkpoint = true
	}
	fm, err := fs.Compile()
	if err != nil {
		panic(err)
	}
	return fm
}

// reference runs each trial through the full per-trial executor and
// projects the scalars; a trial error truncates the reference at that
// index.
func reference(p *Plan, trials []Trial) ([]BatchResult, int, error) {
	out := make([]BatchResult, 0, len(trials))
	for i, tr := range trials {
		res, err := p.Run(tr)
		if err != nil {
			return out, i, err
		}
		out = append(out, res.Scalars())
	}
	return out, -1, nil
}

// checkBatchAgainstReference asserts RunBatch over the trial set matches
// the per-trial reference bit for bit, including the error behavior.
func checkBatchAgainstReference(t *testing.T, p *Plan, trials []Trial, tag string) {
	t.Helper()
	refs, errIdx, refErr := reference(p, trials)

	got := make([]BatchResult, len(trials))
	err := p.RunBatch(trials, got)
	if refErr != nil {
		if err == nil {
			t.Fatalf("%s: reference failed at trial %d (%v) but RunBatch succeeded", tag, errIdx, refErr)
		}
		if !strings.Contains(err.Error(), refErr.Error()) {
			t.Fatalf("%s: RunBatch error %q does not carry reference error %q", tag, err, refErr)
		}
	} else if err != nil {
		t.Fatalf("%s: RunBatch: %v", tag, err)
	}
	for i, want := range refs {
		if got[i] != want {
			t.Fatalf("%s: trial %d: batch %+v != reference %+v", tag, i, got[i], want)
		}
	}

	// RunScalar is the one-trial slice of the same contract.
	for i, tr := range trials {
		if errIdx >= 0 && i >= errIdx {
			break
		}
		br, err := p.RunScalar(tr)
		if err != nil {
			t.Fatalf("%s: RunScalar trial %d: %v", tag, i, err)
		}
		if br != refs[i] {
			t.Fatalf("%s: trial %d: scalar %+v != reference %+v", tag, i, br, refs[i])
		}
	}
}

// TestBatchDifferentialQuick is the randomized wall: plans from all five
// wfgen families on flat, NUMA, and bisection machines, with and without
// payloads/file-system traffic/pool queueing, against mixed failure-free
// and failure-carrying trial sets.
func TestBatchDifferentialQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(7)),
	}
	analyticHits, screened, simulated := 0, 0, 0
	if err := quick.Check(func(c diffCase) bool {
		p := c.compile(t)
		if p.Analytic() {
			analyticHits++
		}
		trials := c.trials()
		for _, tr := range trials {
			if fm := tr.Failures; fm.Enabled() {
				if p.faultFree(fm) {
					screened++
				} else {
					simulated++
				}
			}
		}
		checkBatchAgainstReference(t, p, trials, "quick")
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if analyticHits == 0 {
		t.Fatal("no generated plan took the analytic fast path; the differential wall is not covering it")
	}
	t.Logf("fault-model trials: %d screened fault-free, %d simulated", screened, simulated)
	if screened == 0 || simulated == 0 {
		t.Fatalf("fault-model trials: %d screened, %d simulated; the wall must cover both", screened, simulated)
	}
}

// TestBatchDifferentialExternal covers the external-link override path the
// Monte Carlo ensemble uses (wfgen workflows stage no external data, so
// this uses the LCLS-shaped staged fan-in).
func TestBatchDifferentialExternal(t *testing.T) {
	p := stagedPlan(t)
	gb := units.ByteRate(1e9)
	trials := []Trial{
		{},
		// Resolves to the compiled geometry: a memo hit on the zero trial.
		{OverrideExternal: true, ExternalBW: 5 * gb, ExternalPerFlowCap: gb},
		{OverrideExternal: true, ExternalBW: gb, ExternalPerFlowCap: gb / 5},
		{OverrideExternal: true, ExternalBW: 5 * gb, ExternalPerFlowCap: gb}, // repeat: memo hit
		{OverrideExternal: true, ExternalBW: 2 * gb},
	}
	checkBatchAgainstReference(t, p, trials, "external")
}

// TestPlanMemoConcurrent is the plan memo's race wall: goroutines share one
// plan and run RunBatch over more distinct external geometries than the
// memo holds, each in its own order and chunking, so lookups, inserts, and
// the full-memo path interleave. Every result must be bit-identical to the
// per-trial Run reference, and the memo must stop at its bound.
func TestPlanMemoConcurrent(t *testing.T) {
	p := stagedPlan(t)
	const distinct = memoEntries + 64
	trials := make([]Trial, distinct)
	for i := range trials {
		// Pairs share a bandwidth and differ in the per-flow cap: one binds
		// (five flows at half their fair share), the other is uncapped.
		rate := units.ByteRate(2e8 + float64(i/2)*1e7)
		trials[i] = Trial{OverrideExternal: true, ExternalBW: 5 * rate}
		if i%2 == 0 {
			trials[i].ExternalPerFlowCap = rate / 2
		}
	}
	refs, errIdx, err := reference(stagedPlan(t), trials)
	if err != nil {
		t.Fatalf("reference trial %d: %v", errIdx, err)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// Each goroutine visits every geometry twice, shuffled, so it
			// reads entries other goroutines inserted and its own repeats.
			order := append(rng.Perm(distinct), rng.Perm(distinct)...)
			batch := make([]Trial, 0, 17)
			out := make([]BatchResult, cap(batch))
			for lo := 0; lo < len(order); lo += len(batch) {
				batch = batch[:0]
				for _, i := range order[lo:min(lo+1+g*5, len(order))] {
					batch = append(batch, trials[i])
				}
				if err := p.RunBatch(batch, out); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for j, i := range order[lo : lo+len(batch)] {
					if out[j] != refs[i] {
						t.Errorf("goroutine %d geometry %d: memo %+v != reference %+v", g, i, out[j], refs[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	p.memo.mu.RLock()
	n := len(p.memo.m)
	p.memo.mu.RUnlock()
	if n != memoEntries || !p.memo.full.Load() {
		t.Fatalf("memo holds %d entries (full=%v) after %d distinct geometries; want exactly %d, full",
			n, p.memo.full.Load(), distinct, memoEntries)
	}
}

// TestBatchDifferentialGeometry pins the batching geometries the ensembles
// use: K=1, K mid-range, and K larger than the trial count, each fanned
// over the chunked worker pool at 1 and 4 workers. Run under -race this is
// also the concurrency proof for mixed RunBatch calls on one shared plan.
func TestBatchDifferentialGeometry(t *testing.T) {
	cases := []diffCase{
		{FamIdx: 0, MachIdx: 0, Width: 2, Depth: 2, Seed: 3, NoFS: true},          // analytic
		{FamIdx: 3, MachIdx: 1, Width: 3, Depth: 2, Seed: 5, Payload: true},       // event loop, FS link
		{FamIdx: 2, MachIdx: 2, Width: 4, Depth: 1, Seed: 9, Avail: 1, Fail: 2},   // bisection + queueing + failures
		{FamIdx: 4, MachIdx: 1, Width: 2, Depth: 3, Seed: 11, Fail: 3, Trials: 4}, // node faults
	}
	for _, c := range cases {
		p := c.compile(t)
		trials := c.trials()
		// Extend the trial set so K spans below and above it.
		for orig := len(trials); len(trials) < 6; {
			trials = append(trials, trials[len(trials)%orig])
		}
		refs, errIdx, refErr := reference(p, trials)
		if refErr != nil {
			t.Fatalf("case %+v: reference trial %d: %v", c, errIdx, refErr)
		}
		for _, workers := range []int{1, 4} {
			for _, k := range []int{1, 3, len(trials) + 10} {
				got, err := sweep.MapChunksProgress(context.Background(), len(trials), workers, k,
					func(_ context.Context, lo, hi int, out []BatchResult) error {
						return p.RunBatch(trials[lo:hi], out)
					}, nil)
				if err != nil {
					t.Fatalf("case %+v workers=%d k=%d: %v", c, workers, k, err)
				}
				for i, want := range refs {
					if got[i] != want {
						t.Fatalf("case %+v workers=%d k=%d trial %d: %+v != %+v",
							c, workers, k, i, got[i], want)
					}
				}
			}
		}
	}
}
