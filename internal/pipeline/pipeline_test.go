package pipeline

import (
	"math"
	"strings"
	"testing"

	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
	"wroofline/internal/workloads"
)

func almost(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// oneTaskBound is Analyze's bound on a workflow of the one task.
func oneTaskBound(t *testing.T, m *machine.Machine, partition string, task *workflow.Task) (float64, error) {
	t.Helper()
	w := workflow.New("one", partition)
	if err := w.AddTask(task); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(m, w, 0)
	if err != nil {
		return 0, err
	}
	return a.Levels[0].BoundSeconds, nil
}

func TestAnalyzeTaskBoundMaxRule(t *testing.T) {
	pm := machine.Perlmutter()
	// Compute takes 1 s at peak, PCIe 0.8 s, FS 0.357 s: the bound is the
	// max (1 s), not the sum.
	task := &workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{
		Flops:     38.8 * units.TFLOP,
		PCIeBytes: 80 * units.GB,
		FSBytes:   2 * units.TB,
	}}
	b, err := oneTaskBound(t, pm, machine.PartGPU, task)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b, 1, 1e-9) {
		t.Errorf("bound = %v, want 1 (max component)", b)
	}
}

// TestAnalyzeNUMAMemory pins a memory task's bound on a NUMA partition to
// the roofline model's memory ceiling: both move the bytes at the
// partition's effective bandwidth, not the flat node aggregate.
func TestAnalyzeNUMAMemory(t *testing.T) {
	m := machine.PerlmutterNUMA()
	task := &workflow.Task{ID: "mem", Nodes: 1, Work: workflow.Work{MemBytes: 100 * units.GB}}
	b, err := oneTaskBound(t, m, machine.PartCPU, task)
	if err != nil {
		t.Fatal(err)
	}
	wf := workflow.New("numa-mem", machine.PartCPU)
	if err := wf.AddTask(task); err != nil {
		t.Fatal(err)
	}
	model, err := core.Build(m, wf, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ceiling := math.NaN()
	for _, c := range model.Ceilings {
		if c.Resource == core.ResMemory {
			ceiling = c.TimePerTask
		}
	}
	if !almost(b, ceiling, 1e-9) {
		t.Errorf("bound = %v s, core memory ceiling = %v s", b, ceiling)
	}
	part, err := m.Partition(machine.PartCPU)
	if err != nil {
		t.Fatal(err)
	}
	if flat := units.TimeToMove(task.Work.MemBytes, part.NodeMemBW); almost(b, flat, 1e-3) {
		t.Errorf("bound = %v s is the flat node-bandwidth time; the NUMA machine must be slower", b)
	}
}

func TestAnalyzeBGW(t *testing.T) {
	cs, err := workloads.BGW(64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(cs.Machine, cs.Workflow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Levels) != 2 {
		t.Fatalf("levels = %d, want 2 (epsilon -> sigma)", len(a.Levels))
	}
	if a.Levels[0].BottleneckTask != "epsilon" || a.Levels[1].BottleneckTask != "sigma" {
		t.Errorf("bottlenecks: %q, %q", a.Levels[0].BottleneckTask, a.Levels[1].BottleneckTask)
	}
	// Sigma's level dominates the measured makespan.
	if a.BottleneckLevel != 1 {
		t.Errorf("bottleneck level = %d, want 1 (Sigma)", a.BottleneckLevel)
	}
	// Measured sums to the paper's 4184.86 s.
	if !almost(a.MeasuredMakespan, workloads.BGWMeasured64, 1e-6) {
		t.Errorf("measured makespan = %v, want %v", a.MeasuredMakespan, workloads.BGWMeasured64)
	}
	// The pipeline efficiency matches the paper's ~42% of node peak (BGW's
	// per-task bound is its compute time).
	if eff := a.PipelineEfficiency(); !almost(eff, 0.42, 0.03) {
		t.Errorf("pipeline efficiency = %v, want ~0.42", eff)
	}
	// One wave per level (width 1).
	for _, l := range a.Levels {
		if l.Waves != 1 {
			t.Errorf("level %d waves = %d", l.Index, l.Waves)
		}
	}
}

func TestAnalyzeWavesUnderWall(t *testing.T) {
	pm := machine.Perlmutter()
	// 30 parallel 64-node tasks on the GPU partition: the wall is 28, so
	// the level needs 2 waves.
	w := workflow.New("waves", machine.PartGPU)
	for i := 0; i < 30; i++ {
		id := string(rune('a' + i/26))
		id = id + string(rune('a'+i%26))
		if err := w.AddTask(&workflow.Task{
			ID: id, Nodes: 64,
			Work: workflow.Work{Flops: 38.8 * units.TFLOP},
		}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := Analyze(pm, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Levels) != 1 {
		t.Fatalf("levels = %d", len(a.Levels))
	}
	l := a.Levels[0]
	if l.Waves != 2 {
		t.Errorf("waves = %d, want 2 (30 tasks over a wall of 28)", l.Waves)
	}
	if !almost(l.BoundSeconds, 2, 1e-9) {
		t.Errorf("level bound = %v, want 2 (two 1 s waves)", l.BoundSeconds)
	}
}

func TestAnalyzeLCLS(t *testing.T) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(cs.Machine, cs.Workflow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Levels) != 2 {
		t.Fatalf("levels = %d", len(a.Levels))
	}
	// Level 0 (analysis) is external-bound: 1 TB @ 1 GB/s = 1000 s each.
	if !almost(a.Levels[0].BoundSeconds, 1000, 1e-9) {
		t.Errorf("level 0 bound = %v, want 1000", a.Levels[0].BoundSeconds)
	}
	// The bound makespan is dominated by level 0.
	if a.BottleneckLevel != 0 {
		t.Errorf("bottleneck level = %d, want 0", a.BottleneckLevel)
	}
	if a.PipelineEfficiency() != 0 {
		t.Errorf("no measurements -> efficiency 0, got %v", a.PipelineEfficiency())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	pm := machine.Perlmutter()
	empty := workflow.New("e", machine.PartGPU)
	if _, err := Analyze(pm, empty, 0); err == nil {
		t.Error("empty workflow should fail")
	}
	big := workflow.New("big", machine.PartGPU)
	if err := big.AddTask(&workflow.Task{ID: "t", Nodes: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(pm, big, 32); err == nil {
		t.Error("level needing more nodes than available should fail")
	}
	badPart := workflow.New("p", "nope")
	if err := badPart.AddTask(&workflow.Task{ID: "t", Nodes: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(pm, badPart, 0); err == nil {
		t.Error("unknown partition should fail")
	}
}

// TestTaskBoundSecondsErrors checks the errors and the zero case of one
// task's bound in seconds, as Analyze reports it for a one-task level.
func TestTaskBoundSecondsErrors(t *testing.T) {
	pm := machine.Perlmutter()
	// PCIe work on the CPU partition (no PCIe peak).
	pcie := &workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{PCIeBytes: units.GB}}
	if _, err := oneTaskBound(t, pm, machine.PartCPU, pcie); err == nil {
		t.Error("PCIe work without a PCIe peak should fail")
	}
	// External work without external bandwidth.
	ext := &workflow.Task{ID: "t", Nodes: 1, Work: workflow.Work{ExternalBytes: units.GB}}
	if _, err := oneTaskBound(t, pm.WithExternalBW(0), machine.PartCPU, ext); err == nil {
		t.Error("external work without external bandwidth should fail")
	}
	// Unknown partition.
	if _, err := oneTaskBound(t, pm, "nope", pcie); err == nil {
		t.Error("unknown partition should fail")
	}
	// Empty work: zero bound.
	if b, err := oneTaskBound(t, pm, machine.PartGPU, &workflow.Task{ID: "t", Nodes: 1}); err != nil || b != 0 {
		t.Errorf("empty work bound = %v, %v", b, err)
	}
}

func TestAnalysisTable(t *testing.T) {
	cs, err := workloads.BGW(64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(cs.Machine, cs.Workflow, 0)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := a.Table("BGW pipeline")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BGW pipeline", "level", "sigma", "epsilon", "waves"} {
		if !strings.Contains(txt, want) {
			t.Errorf("table missing %q:\n%s", want, txt)
		}
	}
}
