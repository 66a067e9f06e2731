package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"wroofline/internal/engine"
	"wroofline/internal/failure"
	"wroofline/internal/machine"
	"wroofline/internal/sweep"
	"wroofline/internal/wfgen"
	"wroofline/internal/workflow"
)

// scratchCase is one plan of the shared-scratch wall plus its trials.
type scratchCase struct {
	name   string
	p      *Plan
	trials []Trial
}

// scratchCases compiles plans that differ in everything a scratch carries
// between plans: which of the external, file-system and bisection links
// they use, their partition (the pool name) and pool width, their task and
// phase-slot counts, and whether trials inject faults.
func scratchCases(t *testing.T) []scratchCase {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var out []scratchCase
	for k := 0; len(out) < 24; k++ {
		c := diffCase{
			FamIdx:  uint8(k),
			MachIdx: uint8(rng.Intn(3)),
			Width:   uint8(rng.Intn(5)),
			Depth:   uint8(rng.Intn(4)),
			Seed:    rng.Uint64(),
			CV:      uint8(rng.Intn(5)),
			Payload: rng.Intn(2) == 0,
			NoFS:    rng.Intn(3) == 0,
			Avail:   uint8(rng.Intn(8)),
			Fail:    uint8(rng.Intn(4)),
			Trials:  2,
		}
		s := c.spec()
		mname := diffMachines[int(c.MachIdx)%len(diffMachines)]
		if k%4 == 1 {
			mname, s.Partition = "perlmutter", machine.PartGPU
		}
		m, err := machine.ByName(mname)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := wfgen.Generate(s)
		if err != nil {
			t.Fatalf("generate %+v: %v", s, err)
		}
		cfg := Config{Machine: m}
		if c.Avail%4 != 0 {
			cfg.AvailableNodes = 2 + int(c.Avail)%3
		}
		p, err := Compile(wf, nil, cfg)
		if err != nil {
			t.Fatalf("compile %s: %v", wf.Name, err)
		}
		out = append(out, scratchCase{name: mname + "/" + wf.Name, p: p, trials: c.trials()})
	}
	// Generated workflows stage nothing externally: add the staged fan-in
	// (external link, overridden per trial) and a plan whose zero-byte
	// external and network phases must skip the links it does not use.
	failing, err := (&failure.Spec{TaskFailProb: 0.3, Seed: 4, RestageRate: "2 GB/s"}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, scratchCase{name: "staged", p: stagedPlan(t), trials: []Trial{
		{}, {OverrideExternal: true, ExternalBW: 2e9, ExternalPerFlowCap: 5e8}, {Failures: failing},
	}})
	wf := workflow.New("zero-staging", machine.PartCPU)
	progs := map[string]Program{}
	for _, id := range []string{"a", "b", "c"} {
		if err := wf.AddTask(&workflow.Task{ID: id, Nodes: 2}); err != nil {
			t.Fatal(err)
		}
		progs[id] = Program{{Kind: PhaseExternal}, {Kind: PhaseNetwork}, {Kind: PhaseFixed, Seconds: 2}}
	}
	if err := wf.AddDep("a", "c"); err != nil {
		t.Fatal(err)
	}
	zero, err := Compile(wf, progs, Config{Machine: machine.Ridgeline()})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, scratchCase{name: "zero-staging", p: zero, trials: []Trial{{}}})
	// Four concurrent 512-node exchanges saturate Ridgeline's bisection, so
	// the fabric leg sets the makespan there; the same workflow on
	// Perlmutter (no bisection limit) must not route through a scratch's
	// leftover bisection link.
	fabric := workflow.New("fabric", machine.PartCPU)
	fprogs := map[string]Program{}
	for _, id := range []string{"x0", "x1", "x2", "x3"} {
		if err := fabric.AddTask(&workflow.Task{ID: id, Nodes: 512}); err != nil {
			t.Fatal(err)
		}
		fprogs[id] = Program{{Kind: PhaseNetwork, Bytes: 10e9}}
	}
	for _, m := range []*machine.Machine{machine.Ridgeline(), machine.Perlmutter()} {
		p, err := Compile(fabric, fprogs, Config{Machine: m})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, scratchCase{name: "fabric/" + m.Name, p: p, trials: []Trial{{}}})
	}

	var ext, fs, bis, gpu bool
	for _, c := range out {
		ext, fs, bis = ext || c.p.needExternal, fs || c.p.needFS, bis || c.p.needBis
		gpu = gpu || c.p.peaks.Partition == machine.PartGPU
	}
	if !ext || !fs || !bis || !gpu {
		t.Fatalf("cases miss a link or partition: external %v fs %v bisection %v gpu %v", ext, fs, bis, gpu)
	}
	return out
}

// runOn executes one full trial of p on scratch r.
func runOn(r *trialRun, p *Plan, trial Trial) (*Result, error) {
	fm, externalBW, externalCap, err := p.resolveTrial(trial)
	if err != nil {
		return nil, err
	}
	r.bind(p)
	return r.run(p, fm, externalBW, externalCap)
}

// sameResult compares two full results field by field, spans included.
func sameResult(a, b *Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !reflect.DeepEqual(a.Recorder.Spans(), b.Recorder.Spans()) {
		return false
	}
	ac, bc := *a, *b
	ac.Recorder, bc.Recorder = nil, nil
	return reflect.DeepEqual(ac, bc)
}

// TestSharedScratchAcrossPlans is the shared-scratch wall: plans of every
// shape run alternately through one scratch, and through the package pool,
// must each reproduce a run on a fresh scratch exactly. A scratch that
// carried a previous plan's link (a stale bisection link reroutes network
// phases), pool name or table length into the next plan diverges here.
func TestSharedScratchAcrossPlans(t *testing.T) {
	cases := scratchCases(t)
	type outcome struct {
		res *Result
		err string
	}
	fresh := make([][]outcome, len(cases))
	for ci, c := range cases {
		for _, trial := range c.trials {
			res, err := runOn(&trialRun{eng: engine.New()}, c.p, trial)
			fresh[ci] = append(fresh[ci], outcome{res, errString(err)})
		}
	}

	shared := &trialRun{eng: engine.New()}
	for round := 0; round < 3; round++ {
		for n := range cases {
			ci := n
			if round == 1 {
				ci = len(cases) - 1 - n
			}
			c := cases[ci]
			for ti, trial := range c.trials {
				want := fresh[ci][ti]
				res, err := runOn(shared, c.p, trial)
				if errString(err) != want.err || !sameResult(res, want.res) {
					t.Fatalf("round %d %s trial %d: shared scratch diverged from a fresh one (err %q, want %q)",
						round, c.name, ti, errString(err), want.err)
				}
				if shared.pool.Name != c.p.peaks.Partition {
					t.Fatalf("%s: pool named %q, want partition %q", c.name, shared.pool.Name, c.p.peaks.Partition)
				}
				if res, err = c.p.Run(trial); errString(err) != want.err || !sameResult(res, want.res) {
					t.Fatalf("round %d %s trial %d: pooled Run diverged from a fresh scratch", round, c.name, ti)
				}
				br, err := c.p.RunScalar(trial)
				if errString(err) != want.err || (err == nil && br != want.res.Scalars()) {
					t.Fatalf("round %d %s trial %d: RunScalar = %+v, %v; want %+v", round, c.name, ti, br, err, want.res)
				}
			}
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// corpusScenarioSpec is a corpus-class scenario like the explore mix's:
// payload-staged, variable work, so the plan runs the event loop.
func corpusScenarioSpec() *wfgen.Spec {
	return &wfgen.Spec{Family: "montage", Seed: 3, Width: 5, Depth: 3, CV: 0.4, Payload: "512 MB"}
}

// Allocation floors, measured with the scratch pool warm (17 and 0 on
// go1.24/amd64). Compile allocates a fixed set of plan tables and the
// scalar trial reuses everything the scratch holds; a failure trial's
// fault streams live in its task states, not on the heap.
const (
	compileRunMaxAllocs   = 20
	failureBatchMaxAllocs = 0
)

// TestCompileRunScalarAllocs pins the cold path a corpus scenario pays:
// Compile plus one scalar trial on a generated workflow.
func TestCompileRunScalarAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch, so allocation counts are meaningless")
	}
	wf, err := wfgen.Generate(corpusScenarioSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: machine.PerlmutterNUMA()}
	run := func() {
		p, err := Compile(wf, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunScalar(Trial{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pool
	allocs := testing.AllocsPerRun(100, run)
	t.Logf("Compile+RunScalar: %.0f allocs", allocs)
	if allocs > compileRunMaxAllocs {
		t.Errorf("Compile+RunScalar allocates %.0f times, want at most %d", allocs, compileRunMaxAllocs)
	}
}

// TestFailureBatchAllocs pins a failure ensemble chunk: RunBatch over
// trials that each carry their own seeded fault model, the way study's
// failure runner builds them.
func TestFailureBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch, so allocation counts are meaningless")
	}
	p := stagedPlan(t)
	base, err := (&failure.Spec{TaskFailProb: 0.2, RestageRate: "1 GB/s",
		Retry: &failure.RetrySpec{MaxAttempts: 8, JitterFrac: 0.2}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	models := make([]failure.Model, k)
	trials := make([]Trial, k)
	out := make([]BatchResult, k)
	for i := range trials {
		models[i] = *base
		models[i].Seed = sweep.TrialSeed(5, i)
		trials[i] = Trial{Failures: &models[i]}
	}
	run := func() {
		if err := p.RunBatch(trials, out); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("failure RunBatch of %d trials: %.0f allocs", k, allocs)
	if allocs > failureBatchMaxAllocs {
		t.Errorf("failure RunBatch of %d trials allocates %.0f times, want at most %d", k, allocs, failureBatchMaxAllocs)
	}
}
