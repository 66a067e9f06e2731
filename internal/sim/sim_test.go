package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wroofline/internal/machine"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// oneTask builds a workflow with a single task on the given partition.
func oneTask(t *testing.T, part string, nodes int, work workflow.Work) *workflow.Workflow {
	t.Helper()
	w := workflow.New("single", part)
	if err := w.AddTask(&workflow.Task{ID: "t", Nodes: nodes, Work: work}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFixedPhase(t *testing.T) {
	w := oneTask(t, machine.PartCPU, 1, workflow.Work{})
	res, err := Run(w, map[string]Program{
		"t": {{Kind: PhaseFixed, Seconds: 42, Name: "bash"}},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 42, 1e-9) {
		t.Errorf("makespan = %v, want 42", res.Makespan)
	}
	bd := res.Breakdown()
	if !almost(bd["bash"], 42, 1e-9) {
		t.Errorf("breakdown = %v", bd)
	}
	if !almost(res.Throughput, 1.0/42, 1e-9) {
		t.Errorf("throughput = %v", res.Throughput)
	}
}

func TestComputePhaseUsesNodePeak(t *testing.T) {
	// 38.8 TFLOP per node at the PM-GPU peak of 38.8 TFLOPS = 1 s.
	w := oneTask(t, machine.PartGPU, 4, workflow.Work{})
	res, err := Run(w, map[string]Program{
		"t": {{Kind: PhaseCompute, Flops: 38.8 * units.TFLOP}},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 1, 1e-9) {
		t.Errorf("makespan = %v, want 1", res.Makespan)
	}
}

func TestEfficiencyScalesNodePhase(t *testing.T) {
	w := oneTask(t, machine.PartGPU, 1, workflow.Work{})
	res, err := Run(w, map[string]Program{
		"t": {{Kind: PhaseCompute, Flops: 38.8 * units.TFLOP, Efficiency: 0.42}},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 1/0.42, 1e-9) {
		t.Errorf("makespan = %v, want %v", res.Makespan, 1/0.42)
	}
}

func TestPCIeMemoryNetworkPhases(t *testing.T) {
	// PM-GPU: PCIe 100 GB/s, HBM 6220 GB/s, NIC 100 GB/s per node.
	w := oneTask(t, machine.PartGPU, 1, workflow.Work{})
	res, err := Run(w, map[string]Program{
		"t": {
			{Kind: PhasePCIe, Bytes: 80 * units.GB},     // 0.8 s (CosmoFlow)
			{Kind: PhaseMemory, Bytes: 622 * units.GB},  // 0.1 s
			{Kind: PhaseNetwork, Bytes: 168 * units.GB}, // 1.68 s (BGW@64)
		},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown()
	if !almost(bd["pcie"], 0.8, 1e-9) {
		t.Errorf("pcie = %v, want 0.8", bd["pcie"])
	}
	if !almost(bd["memory"], 0.1, 1e-9) {
		t.Errorf("memory = %v, want 0.1", bd["memory"])
	}
	if !almost(bd["network"], 1.68, 1e-9) {
		t.Errorf("network = %v, want 1.68", bd["network"])
	}
	if !almost(res.Makespan, 2.58, 1e-9) {
		t.Errorf("makespan = %v (phases are sequential)", res.Makespan)
	}
}

func TestSharedFSContention(t *testing.T) {
	// Two 1-node tasks each loading 2.8 TB from the 5.6 TB/s PM-GPU file
	// system concurrently: fair share 2.8 TB/s each -> 1 s both.
	w := workflow.New("fs2", machine.PartGPU)
	for _, id := range []string{"a", "b"} {
		if err := w.AddTask(&workflow.Task{ID: id, Nodes: 1, Work: workflow.Work{FSBytes: 2.8 * units.TB}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(w, nil, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 1, 1e-9) {
		t.Errorf("makespan = %v, want 1 (fair-share contention)", res.Makespan)
	}
}

func TestExternalPerFlowCap(t *testing.T) {
	// LCLS good day: 5 tasks x 1 TB external at a 1 GB/s per-flow cap on a
	// 25 GB/s link: 1000 s each in parallel.
	w := workflow.New("lcls", machine.PartCPU)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := w.AddTask(&workflow.Task{ID: id, Nodes: 8, Work: workflow.Work{ExternalBytes: 1 * units.TB}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(w, nil, Config{
		Machine:            machine.Perlmutter(),
		ExternalPerFlowCap: 1 * units.GBPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 1000, 1e-9) {
		t.Errorf("makespan = %v, want 1000 (per-flow capped)", res.Makespan)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	w := workflow.New("chain", machine.PartGPU)
	for _, id := range []string{"epsilon", "sigma"} {
		if err := w.AddTask(&workflow.Task{ID: id, Nodes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddDep("epsilon", "sigma"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, map[string]Program{
		"epsilon": {{Kind: PhaseFixed, Seconds: 490}},
		"sigma":   {{Kind: PhaseFixed, Seconds: 1289}},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 1779, 1e-9) {
		t.Errorf("makespan = %v, want 1779 (sequential)", res.Makespan)
	}
	if res.Tasks["sigma"].Start < res.Tasks["epsilon"].End-1e-9 {
		t.Errorf("sigma started before epsilon finished: %+v", res.Tasks)
	}
}

func TestNodePoolLimitsConcurrency(t *testing.T) {
	// 3 tasks of 64 nodes on a 128-node allocation: two run, the third
	// waits -> makespan 2 x 10 s.
	w := workflow.New("wall", machine.PartGPU)
	for i := 0; i < 3; i++ {
		if err := w.AddTask(&workflow.Task{ID: fmt.Sprintf("t%d", i), Nodes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	prog := Program{{Kind: PhaseFixed, Seconds: 10}}
	res, err := Run(w, map[string]Program{"t0": prog, "t1": prog, "t2": prog},
		Config{Machine: machine.Perlmutter(), AvailableNodes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 20, 1e-9) {
		t.Errorf("makespan = %v, want 20 (parallelism wall)", res.Makespan)
	}
	if res.PeakNodesInUse != 128 {
		t.Errorf("peak nodes = %d, want 128", res.PeakNodesInUse)
	}
}

func TestDefaultProgramFromWork(t *testing.T) {
	task := &workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{
		Flops:         1 * units.TFLOP,
		MemBytes:      1 * units.GB,
		PCIeBytes:     2 * units.GB,
		NetworkBytes:  3 * units.GB,
		FSBytes:       4 * units.GB,
		ExternalBytes: 5 * units.GB,
	}}
	prog := appendDefaultProgram(nil, &task.Work)
	if len(prog) != 6 {
		t.Fatalf("default program has %d phases, want 6", len(prog))
	}
	wantOrder := []PhaseKind{PhaseExternal, PhaseFS, PhasePCIe, PhaseMemory, PhaseNetwork, PhaseCompute}
	for i, k := range wantOrder {
		if prog[i].Kind != k {
			t.Errorf("phase %d = %v, want %v", i, prog[i].Kind, k)
		}
	}
	empty := appendDefaultProgram(nil, &workflow.Work{})
	if len(empty) != 0 {
		t.Errorf("empty work should give empty program, got %d phases", len(empty))
	}
}

func TestEmptyProgramTaskStillCounted(t *testing.T) {
	w := workflow.New("noop", machine.PartCPU)
	if err := w.AddTask(&workflow.Task{ID: "t", Nodes: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, nil, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Tasks["t"]; !ok {
		t.Error("noop task missing from results")
	}
	if res.Recorder.Len() != 1 {
		t.Errorf("noop task should leave a marker span, got %d", res.Recorder.Len())
	}
}

func TestRunErrors(t *testing.T) {
	pm := machine.Perlmutter()
	w := oneTask(t, machine.PartGPU, 1, workflow.Work{})
	if _, err := Run(w, nil, Config{}); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := Run(w, map[string]Program{"nope": nil}, Config{Machine: pm}); err == nil {
		t.Error("program for unknown task should fail")
	}
	badPart := workflow.New("x", "nope")
	if err := badPart.AddTask(&workflow.Task{ID: "t", Nodes: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(badPart, nil, Config{Machine: pm}); err == nil {
		t.Error("unknown partition should fail")
	}
	big := oneTask(t, machine.PartGPU, 2000, workflow.Work{})
	if _, err := Run(big, nil, Config{Machine: pm}); err == nil {
		t.Error("oversized task should fail")
	}
	// External bytes without external bandwidth.
	noExt := pm.WithExternalBW(0)
	ext := oneTask(t, machine.PartGPU, 1, workflow.Work{ExternalBytes: units.GB})
	if _, err := Run(ext, nil, Config{Machine: noExt}); err == nil {
		t.Error("external phase without bandwidth should fail")
	}
	// Invalid phase.
	w2 := oneTask(t, machine.PartGPU, 1, workflow.Work{})
	if _, err := Run(w2, map[string]Program{"t": {{Kind: PhaseFixed, Seconds: -1}}}, Config{Machine: pm}); err == nil {
		t.Error("negative fixed phase should fail")
	}
	if _, err := Run(w2, map[string]Program{"t": {{Kind: PhaseKind(99)}}}, Config{Machine: pm}); err == nil {
		t.Error("unknown phase kind should fail")
	}
	if _, err := Run(w2, map[string]Program{"t": {{Kind: PhaseCompute, Flops: -1}}}, Config{Machine: pm}); err == nil {
		t.Error("negative flops should fail")
	}
	if _, err := Run(w2, map[string]Program{"t": {{Kind: PhaseFS, Bytes: units.Bytes(math.NaN())}}}, Config{Machine: pm}); err == nil {
		t.Error("NaN bytes should fail")
	}
	if _, err := Run(w2, map[string]Program{"t": {{Kind: PhaseCompute, Flops: 1, Efficiency: 2}}}, Config{Machine: pm}); err == nil {
		t.Error("efficiency > 1 should fail")
	}
	// PCIe phase on a partition without PCIe (PM-CPU has no GPUs).
	cpuW := oneTask(t, machine.PartCPU, 1, workflow.Work{})
	if _, err := Run(cpuW, map[string]Program{"t": {{Kind: PhasePCIe, Bytes: units.GB}}}, Config{Machine: pm}); err == nil {
		t.Error("PCIe phase on CPU partition should fail")
	}
}

func TestPhaseKindStrings(t *testing.T) {
	kinds := map[PhaseKind]string{
		PhaseExternal: "external", PhaseFS: "filesystem", PhaseNetwork: "network",
		PhasePCIe: "pcie", PhaseMemory: "memory", PhaseCompute: "compute", PhaseFixed: "fixed",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(PhaseKind(42).String(), "42") {
		t.Error("unknown kind should print its value")
	}
}

func TestExternalBWOverride(t *testing.T) {
	// Bad day: override external to 0.2 GB/s per flow on a 1 GB/s link.
	cori := machine.CoriHaswell()
	w := oneTask(t, machine.PartHaswell, 32, workflow.Work{ExternalBytes: 1 * units.TB})
	res, err := Run(w, nil, Config{
		Machine:            cori,
		ExternalBW:         1 * units.GBPS,
		ExternalPerFlowCap: 0.2 * units.GBPS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 5000, 1e-9) {
		t.Errorf("bad-day makespan = %v, want 5000", res.Makespan)
	}
}

// Property: the makespan of a linear chain equals the sum of fixed phase
// durations; for independent equal tasks with enough nodes it equals the
// single-task duration.
func TestQuickMakespanStructure(t *testing.T) {
	pm := machine.Perlmutter()
	f := func(durs []uint8) bool {
		n := len(durs)
		if n == 0 || n > 8 {
			return true
		}
		// Chain.
		chain := workflow.New("chain", machine.PartCPU)
		sum := 0.0
		progs := map[string]Program{}
		for i, d := range durs {
			id := fmt.Sprintf("t%d", i)
			if err := chain.AddTask(&workflow.Task{ID: id, Nodes: 1}); err != nil {
				return false
			}
			dur := float64(d%50) + 1
			sum += dur
			progs[id] = Program{{Kind: PhaseFixed, Seconds: dur}}
			if i > 0 {
				if err := chain.AddDep(fmt.Sprintf("t%d", i-1), id); err != nil {
					return false
				}
			}
		}
		res, err := Run(chain, progs, Config{Machine: pm})
		if err != nil {
			return false
		}
		if !almost(res.Makespan, sum, 1e-9) {
			return false
		}
		// Independent.
		par := workflow.New("par", machine.PartCPU)
		maxDur := 0.0
		progs2 := map[string]Program{}
		for i, d := range durs {
			id := fmt.Sprintf("t%d", i)
			if err := par.AddTask(&workflow.Task{ID: id, Nodes: 1}); err != nil {
				return false
			}
			dur := float64(d%50) + 1
			if dur > maxDur {
				maxDur = dur
			}
			progs2[id] = Program{{Kind: PhaseFixed, Seconds: dur}}
		}
		res2, err := Run(par, progs2, Config{Machine: pm})
		if err != nil {
			return false
		}
		return almost(res2.Makespan, maxDur, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: adding contention (more tasks sharing a link) never reduces
// makespan.
func TestQuickContentionMonotone(t *testing.T) {
	pm := machine.Perlmutter()
	build := func(n int) (*workflow.Workflow, error) {
		w := workflow.New("c", machine.PartGPU)
		for i := 0; i < n; i++ {
			if err := w.AddTask(&workflow.Task{
				ID: fmt.Sprintf("t%d", i), Nodes: 1,
				Work: workflow.Work{FSBytes: 10 * units.TB},
			}); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw%10)+1, int(bRaw%10)+1
		if a > b {
			a, b = b, a
		}
		wa, err := build(a)
		if err != nil {
			return false
		}
		wb, err := build(b)
		if err != nil {
			return false
		}
		ra, err := Run(wa, nil, Config{Machine: pm})
		if err != nil {
			return false
		}
		rb, err := Run(wb, nil, Config{Machine: pm})
		if err != nil {
			return false
		}
		return rb.Makespan >= ra.Makespan-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBackgroundPhaseOverlaps(t *testing.T) {
	// A 10 s background network exchange overlapped with 6 s of compute:
	// the task takes max(10, 6) = 10 s, not 16.
	w := oneTask(t, machine.PartGPU, 1, workflow.Work{})
	res, err := Run(w, map[string]Program{
		"t": {
			{Kind: PhaseNetwork, Bytes: 1000 * units.GB, Background: true}, // 10 s at 100 GB/s
			{Kind: PhaseCompute, Flops: 6 * 38.8 * units.TFLOP},            // 6 s
		},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 10, 1e-9) {
		t.Errorf("makespan = %v, want 10 (overlapped)", res.Makespan)
	}
	// Both spans recorded.
	bd := res.Breakdown()
	if !almost(bd["network"], 10, 1e-9) || !almost(bd["compute"], 6, 1e-9) {
		t.Errorf("breakdown = %v", bd)
	}
}

func TestBackgroundShorterThanChain(t *testing.T) {
	// Background 2 s behind an 8 s chain: the chain dominates.
	w := oneTask(t, machine.PartGPU, 1, workflow.Work{})
	res, err := Run(w, map[string]Program{
		"t": {
			{Kind: PhaseFixed, Seconds: 2, Background: true, Name: "bg"},
			{Kind: PhaseFixed, Seconds: 8, Name: "fg"},
		},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 8, 1e-9) {
		t.Errorf("makespan = %v, want 8", res.Makespan)
	}
}

func TestAllBackgroundPhases(t *testing.T) {
	// A program of only background phases completes at the longest one.
	w := oneTask(t, machine.PartGPU, 1, workflow.Work{})
	res, err := Run(w, map[string]Program{
		"t": {
			{Kind: PhaseFixed, Seconds: 3, Background: true, Name: "a"},
			{Kind: PhaseFixed, Seconds: 7, Background: true, Name: "b"},
			{Kind: PhaseFixed, Seconds: 5, Background: true, Name: "c"},
		},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Makespan, 7, 1e-9) {
		t.Errorf("makespan = %v, want 7", res.Makespan)
	}
}

func TestBackgroundHoldsDependents(t *testing.T) {
	// A successor must wait for the predecessor's background phase too.
	w := workflow.New("bgdep", machine.PartGPU)
	for _, id := range []string{"a", "b"} {
		if err := w.AddTask(&workflow.Task{ID: id, Nodes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddDep("a", "b"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, map[string]Program{
		"a": {
			{Kind: PhaseFixed, Seconds: 9, Background: true, Name: "slow-bg"},
			{Kind: PhaseFixed, Seconds: 1, Name: "fast-fg"},
		},
		"b": {{Kind: PhaseFixed, Seconds: 1}},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks["b"].Start < 9-1e-9 {
		t.Errorf("b started at %v, want >= 9 (a's background must finish)", res.Tasks["b"].Start)
	}
	if !almost(res.Makespan, 10, 1e-9) {
		t.Errorf("makespan = %v, want 10", res.Makespan)
	}
}

// The overlap ablation on BGW: hiding the MPI exchange behind compute
// shaves exactly the network time off the makespan.
func TestBackgroundBGWOverlapAblation(t *testing.T) {
	base, err := Run(mustBGWLike(t), map[string]Program{
		"t": {
			{Kind: PhaseNetwork, Bytes: 84 * units.GB},
			{Kind: PhaseCompute, Flops: 18.19 * units.PFLOP, Efficiency: 0.42},
		},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	overlapped, err := Run(mustBGWLike(t), map[string]Program{
		"t": {
			{Kind: PhaseNetwork, Bytes: 84 * units.GB, Background: true},
			{Kind: PhaseCompute, Flops: 18.19 * units.PFLOP, Efficiency: 0.42},
		},
	}, Config{Machine: machine.Perlmutter()})
	if err != nil {
		t.Fatal(err)
	}
	netTime := 0.84
	if !almost(base.Makespan-overlapped.Makespan, netTime, 1e-6) {
		t.Errorf("overlap saved %v, want %v", base.Makespan-overlapped.Makespan, netTime)
	}
}

func mustBGWLike(t *testing.T) *workflow.Workflow {
	t.Helper()
	w := workflow.New("bgwlike", machine.PartGPU)
	if err := w.AddTask(&workflow.Task{ID: "t", Nodes: 64}); err != nil {
		t.Fatal(err)
	}
	return w
}

// Property: with a foreground chain and background phases, the makespan is
// max(sum of foreground, longest prefix-start background end). For programs
// where all background phases start at t=0 (declared first), that is
// max(chain, max background).
func TestQuickBackgroundMakespan(t *testing.T) {
	pm := machine.Perlmutter()
	f := func(bgRaw []uint8, fgRaw uint8) bool {
		if len(bgRaw) == 0 || len(bgRaw) > 6 {
			return true
		}
		w := workflow.New("q", machine.PartCPU)
		if err := w.AddTask(&workflow.Task{ID: "t", Nodes: 1}); err != nil {
			return false
		}
		var prog Program
		maxBG := 0.0
		for _, b := range bgRaw {
			d := float64(b%50) + 1
			if d > maxBG {
				maxBG = d
			}
			prog = append(prog, Phase{Kind: PhaseFixed, Seconds: d, Background: true})
		}
		fg := float64(fgRaw%50) + 1
		prog = append(prog, Phase{Kind: PhaseFixed, Seconds: fg})
		res, err := Run(w, map[string]Program{"t": prog}, Config{Machine: pm})
		if err != nil {
			return false
		}
		want := math.Max(maxBG, fg)
		return almost(res.Makespan, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
