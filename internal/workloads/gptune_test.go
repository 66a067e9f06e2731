package workloads

import (
	"strings"
	"testing"

	"wroofline/internal/breakdown"
	"wroofline/internal/core"
)

func TestGPTuneTotals(t *testing.T) {
	rci, err := GPTuneTotalSeconds(GPTuneRCI)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rci, GPTuneRCISeconds, 1e-6) {
		t.Errorf("RCI total = %v, want %v", rci, GPTuneRCISeconds)
	}
	spawn, err := GPTuneTotalSeconds(GPTuneSpawn)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(spawn, GPTuneSpawnSeconds, 1e-6) {
		t.Errorf("Spawn total = %v, want %v", spawn, GPTuneSpawnSeconds)
	}
	// Spawn is ~2.4x faster than RCI (Fig 10a annotation).
	if ratio := rci / spawn; !almost(ratio, 2.4, 0.02) {
		t.Errorf("RCI/Spawn = %.3f, want ~2.4", ratio)
	}
	// Projected is ~12x faster than Spawn.
	projected, err := GPTuneTotalSeconds(GPTuneProjected)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := spawn / projected; !almost(ratio, 12, 0.02) {
		t.Errorf("Spawn/projected = %.3f, want ~12", ratio)
	}
}

func TestGPTuneStackStructure(t *testing.T) {
	rci, err := GPTuneStack(GPTuneRCI)
	if err != nil {
		t.Fatal(err)
	}
	// RCI's bash+python overhead is ~500 s (Section IV-C4).
	if overhead := rci["bash"] + rci["python"]; !almost(overhead, 500, 0.02) {
		t.Errorf("RCI bash+python = %v, want ~500", overhead)
	}
	if rci["load data"] != GPTuneIOSecondsRCI {
		t.Errorf("RCI I/O = %v, want %v", rci["load data"], GPTuneIOSecondsRCI)
	}
	spawn, err := GPTuneStack(GPTuneSpawn)
	if err != nil {
		t.Fatal(err)
	}
	if spawn["bash"] != 0 {
		t.Errorf("Spawn has no bash phase, got %v", spawn["bash"])
	}
	if spawn["load data"] != GPTuneIOSecondsSpawn {
		t.Errorf("Spawn I/O = %v, want %v", spawn["load data"], GPTuneIOSecondsSpawn)
	}
	// Application and model time are mode-independent.
	if rci["application"] != spawn["application"] || rci["model and search"] != spawn["model and search"] {
		t.Error("application/model time should not depend on the control flow")
	}
	// Stacks are copies.
	rci["python"] = 0
	again, _ := GPTuneStack(GPTuneRCI)
	if again["python"] == 0 {
		t.Error("GPTuneStack must return a copy")
	}
	if _, err := GPTuneStack(GPTuneMode(99)); err == nil {
		t.Error("unknown mode should fail")
	}
}

func TestGPTuneModelShape(t *testing.T) {
	cs, err := GPTune(GPTuneSpawn)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Model.Wall != 3072 {
		t.Errorf("wall = %d, want 3072 (one node per task on PM-CPU)", cs.Model.Wall)
	}
	p, err := cs.Workflow.ParallelTasks()
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("parallel tasks = %d, want 1 (serialized samples)", p)
	}
	if cs.Workflow.TotalTasks() != GPTuneSamples {
		t.Errorf("tasks = %d, want 40", cs.Workflow.TotalTasks())
	}
	// The two file-system ceilings nearly coincide (I/O volume is not the
	// story): within 15% of each other.
	var fsCeilings []core.Ceiling
	for _, c := range cs.Model.Ceilings {
		if c.Resource == core.ResFileSystem {
			fsCeilings = append(fsCeilings, c)
		}
	}
	if len(fsCeilings) != 2 {
		t.Fatalf("FS ceilings = %d, want 2", len(fsCeilings))
	}
	if !almost(fsCeilings[0].TPSAt(1), fsCeilings[1].TPSAt(1), 0.15) {
		t.Errorf("FS ceilings should nearly coincide: %v vs %v",
			fsCeilings[0].TPSAt(1), fsCeilings[1].TPSAt(1))
	}
}

func TestGPTunePointsOrdering(t *testing.T) {
	cs, err := GPTune(GPTuneRCI)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]core.Point{}
	for _, p := range cs.Points {
		byLabel[p.Label] = p
	}
	if byLabel["Spawn"].TPS <= byLabel["RCI"].TPS {
		t.Error("Spawn dot should sit above RCI")
	}
	if byLabel["Projected"].TPS <= byLabel["Spawn"].TPS {
		t.Error("projected dot should sit above Spawn")
	}
	// All three share x=1.
	for _, p := range cs.Points {
		if p.ParallelTasks != 1 {
			t.Errorf("point %s at x=%v, want 1", p.Label, p.ParallelTasks)
		}
	}
	// Headroom from RCI to the model bound is large (>10x): the data-volume
	// ceilings are nowhere near binding.
	if h := cs.Model.Headroom(byLabel["RCI"]); h < 10 {
		t.Errorf("RCI headroom = %.1fx, want >10x", h)
	}
}

// The simulation regenerates both measured totals within 1%.
func TestGPTuneSimulationMatchesMeasured(t *testing.T) {
	for _, mode := range []GPTuneMode{GPTuneRCI, GPTuneSpawn} {
		cs, err := GPTune(mode)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cs.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := GPTuneTotalSeconds(mode)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(res.Makespan, want, 0.01) {
			t.Errorf("%s sim = %.2fs, want %.2fs +-1%%", mode, res.Makespan, want)
		}
		// Samples are serialized: the peak node usage is one.
		if res.PeakNodesInUse != 1 {
			t.Errorf("%s peak nodes = %d, want 1", mode, res.PeakNodesInUse)
		}
	}
}

// Fig 10b regenerated from the simulation's phase spans.
func TestGPTuneBreakdownFromSim(t *testing.T) {
	ch := breakdown.New("GPTune time breakdown", "python", "load data", "bash", "application", "model and search")
	for _, mode := range []GPTuneMode{GPTuneRCI, GPTuneSpawn} {
		cs, err := GPTune(mode)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cs.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Add(mode.String(), res.Breakdown()); err != nil {
			t.Fatal(err)
		}
	}
	speedup, err := ch.Speedup("RCI", "Spawn")
	if err != nil {
		t.Fatal(err)
	}
	if !almost(speedup, 2.4, 0.03) {
		t.Errorf("sim RCI/Spawn = %.3f, want ~2.4", speedup)
	}
	out := ch.Render(60)
	for _, want := range []string{"RCI", "Spawn", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown render missing %q:\n%s", want, out)
		}
	}
}

func TestGPTuneModeString(t *testing.T) {
	if GPTuneRCI.String() != "RCI" || GPTuneSpawn.String() != "Spawn" || GPTuneProjected.String() != "Projected" {
		t.Error("mode names wrong")
	}
	if GPTuneMode(9).String() == "" {
		t.Error("unknown mode should print")
	}
	if _, err := GPTune(GPTuneMode(9)); err == nil {
		t.Error("unknown mode should fail to build")
	}
}

// paperCases builds the paper's seven case studies in presentation order:
// LCLS on Cori and Perlmutter, BerkeleyGW at 64 and 1024 nodes per task,
// CosmoFlow at 12 instances, and GPTune in RCI and spawn mode.
func paperCases(t *testing.T) []*CaseStudy {
	t.Helper()
	var out []*CaseStudy
	for _, name := range []string{"lcls-cori", "lcls-pm", "bgw-64", "bgw-1024", "cosmoflow", "gptune-rci", "gptune-spawn"} {
		cs, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cs)
	}
	return out
}

func TestAll(t *testing.T) {
	all := paperCases(t)
	if len(all) != 7 {
		t.Fatalf("case studies = %d, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, cs := range all {
		if seen[cs.Name] {
			t.Errorf("duplicate case study %q", cs.Name)
		}
		seen[cs.Name] = true
		if err := cs.Model.Validate(); err != nil {
			t.Errorf("%s: invalid model: %v", cs.Name, err)
		}
		if err := cs.Workflow.Validate(); err != nil {
			t.Errorf("%s: invalid workflow: %v", cs.Name, err)
		}
		if cs.Figure == "" {
			t.Errorf("%s: missing figure reference", cs.Name)
		}
	}
	// Every case study simulates successfully.
	for _, cs := range all {
		if _, err := cs.Simulate(); err != nil {
			t.Errorf("%s: simulation failed: %v", cs.Name, err)
		}
	}
}
