package whatif

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wroofline/internal/core"
	"wroofline/internal/workloads"
)

func almost(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// The conclusion's headline: 10x faster compute does nothing for LCLS, but
// improving the external path helps linearly until the next ceiling.
func TestLCLSComputeVsExternal(t *testing.T) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := Evaluate(cs.Model, 5, []Perturbation{
		ScaleResource(core.ResMemory, 10),   // "faster computing unit"
		ScaleResource(core.ResExternal, 2),  // better QOS on the external path
		ScaleResource(core.ResExternal, 10), // much better QOS
	})
	if err != nil {
		t.Fatal(err)
	}
	base := outcomes[0]
	if base.Name != "base" {
		t.Fatalf("first outcome should be base, got %q", base.Name)
	}
	faster := outcomes[1]
	if !almost(faster.Speedup, 1, 1e-9) {
		t.Errorf("10x memory speedup = %v, want exactly 1 (system bound)", faster.Speedup)
	}
	ext2 := outcomes[2]
	if !almost(ext2.Speedup, 2, 1e-6) {
		t.Errorf("2x external speedup = %v, want 2", ext2.Speedup)
	}
	ext10 := outcomes[3]
	// At 10x external the per-stream time drops to 100 s; the burst buffer
	// (T=1.099 s horizontal, 0.91 TPS) is still far above p/100 = 0.05, so
	// external remains binding and the speedup is the full 10x.
	if !almost(ext10.Speedup, 10, 1e-6) {
		t.Errorf("10x external speedup = %v, want 10", ext10.Speedup)
	}
}

func TestUsefulImprovement(t *testing.T) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	// Memory is not binding: improving it is useless.
	f, sp, err := UsefulImprovement(cs.Model, 5, core.ResMemory)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 || sp != 1 {
		t.Errorf("memory improvement = (%v, %v), want (1, 1)", f, sp)
	}
	// External is binding: useful improvement runs until the burst-buffer
	// ceiling takes over: next bound 0.91 TPS over base 0.005 -> ~182x.
	f, sp, err = UsefulImprovement(cs.Model, 5, core.ResExternal)
	if err != nil {
		t.Fatal(err)
	}
	if f < 100 || f > 300 {
		t.Errorf("external useful factor = %v, want ~182", f)
	}
	if !almost(f, sp, 1e-9) {
		t.Errorf("factor %v and speedup %v should match for the binding resource", f, sp)
	}
}

func TestUsefulImprovementSingleCeiling(t *testing.T) {
	m := &core.Model{Title: "one", Wall: 8}
	m.AddCeiling(core.Ceiling{Name: "only", Resource: core.ResCompute, Scope: core.ScopeNode, TimePerTask: 2})
	f, sp, err := UsefulImprovement(m, 2, core.ResCompute)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(f, 1) || !math.IsInf(sp, 1) {
		t.Errorf("sole ceiling should have unbounded useful improvement, got (%v, %v)", f, sp)
	}
}

func TestScaleResourceErrors(t *testing.T) {
	m := &core.Model{Title: "x", Wall: 2}
	m.AddCeiling(core.Ceiling{Name: "c", Resource: core.ResCompute, Scope: core.ScopeNode, TimePerTask: 1})
	if _, err := ScaleResource(core.ResPCIe, 2).Apply(m); err == nil {
		t.Error("scaling an absent resource should fail")
	}
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ScaleResource(core.ResCompute, f).Apply(m); err == nil {
			t.Errorf("factor %v should fail", f)
		}
	}
	// Apply must not mutate the base.
	if _, err := ScaleResource(core.ResCompute, 4).Apply(m); err != nil {
		t.Fatal(err)
	}
	if m.Ceilings[0].TimePerTask != 1 {
		t.Error("ScaleResource mutated the base model")
	}
}

func TestScaleWall(t *testing.T) {
	m := &core.Model{Title: "x", Wall: 28}
	m.AddCeiling(core.Ceiling{Name: "c", Resource: core.ResCompute, Scope: core.ScopeNode, TimePerTask: 1})
	bigger, err := ScaleWall(2).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Wall != 56 {
		t.Errorf("wall = %d, want 56", bigger.Wall)
	}
	smaller, err := ScaleWall(0.01).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if smaller.Wall != 1 {
		t.Errorf("wall = %d, want clamped to 1", smaller.Wall)
	}
	if _, err := ScaleWall(0).Apply(m); err == nil {
		t.Error("zero factor should fail")
	}
	if m.Wall != 28 {
		t.Error("ScaleWall mutated the base model")
	}
}

func TestIntraTaskPerturbation(t *testing.T) {
	m, err := workloads.ExampleModel()
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := IntraTask(2, 1).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Wall != 14 {
		t.Errorf("wall = %d, want 14", scaled.Wall)
	}
	// Fractional k is the coarsening direction: wall widens.
	coarse, err := IntraTask(0.5, 1).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Wall != 2*m.Wall {
		t.Errorf("0.5x wall = %d, want %d", coarse.Wall, 2*m.Wall)
	}
	if _, err := IntraTask(0, 1).Apply(m); err == nil {
		t.Error("k = 0 should fail")
	}
}

func TestEvaluateValidation(t *testing.T) {
	m := &core.Model{Wall: 1}
	if _, err := Evaluate(m, 1, nil); err == nil {
		t.Error("invalid base model should fail")
	}
	m.AddCeiling(core.Ceiling{Name: "c", Resource: core.ResCompute, Scope: core.ScopeNode, TimePerTask: 1})
	if _, err := Evaluate(m, 0, nil); err == nil {
		t.Error("zero p should fail")
	}
	if _, err := Evaluate(m, 1, []Perturbation{ScaleResource(core.ResPCIe, 2)}); err == nil {
		t.Error("failing perturbation should propagate")
	}
}

func TestEvaluateTargets(t *testing.T) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := Evaluate(cs.Model, 5, []Perturbation{ScaleResource(core.ResExternal, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// Base: external bound 0.005 < target 0.01 -> misses throughput.
	if outcomes[0].MeetsThroughput {
		t.Error("base LCLS should miss the throughput target")
	}
	// 4x external: 0.02 >= 0.01 -> meets it.
	if !outcomes[1].MeetsThroughput {
		t.Errorf("4x external should clear the target: %+v", outcomes[1])
	}
}

func TestSweepResource(t *testing.T) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	var perts []Perturbation
	for _, f := range []float64{1, 2, 4, 100, 1000} {
		perts = append(perts, ScaleResource(core.ResExternal, f))
	}
	outcomes, err := Evaluate(cs.Model, 5, perts)
	if err != nil {
		t.Fatal(err)
	}
	points := outcomes[1:] // outcomes[0] is the unscaled base
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// Monotone non-decreasing, saturating at the burst-buffer ceiling.
	for i := 1; i < len(points); i++ {
		if points[i].BoundTPS < points[i-1].BoundTPS-1e-12 {
			t.Errorf("sweep not monotone at %d: %v -> %v", i, points[i-1].BoundTPS, points[i].BoundTPS)
		}
	}
	last := points[len(points)-1]
	if !strings.Contains(last.Limiting, "Internal") {
		t.Errorf("at 1000x external the burst buffer should bind, got %q", last.Limiting)
	}
}

func TestTableRendering(t *testing.T) {
	cs, err := workloads.LCLSCori()
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := Evaluate(cs.Model, 5, []Perturbation{ScaleResource(core.ResExternal, 2)})
	if err != nil {
		t.Fatal(err)
	}
	txt, err := Table("LCLS what-if", outcomes)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LCLS what-if", "base", "2x external", "speedup"} {
		if !strings.Contains(txt, want) {
			t.Errorf("table missing %q:\n%s", want, txt)
		}
	}
}

// Property: scaling the binding resource by f <= the useful factor yields
// speedup exactly f; beyond it, the speedup saturates at the useful factor.
func TestQuickUsefulFactorSaturation(t *testing.T) {
	f := func(tA, tB uint16, fRaw uint8) bool {
		a := float64(tA%1000)/10 + 1 // binding (slower)
		b := a / (float64(tB%9 + 2)) // other ceiling is 2..10x faster
		m := &core.Model{Title: "q", Wall: 64}
		m.AddCeiling(core.Ceiling{Name: "bind", Resource: core.ResExternal, Scope: core.ScopeSystem, TimePerTask: a})
		m.AddCeiling(core.Ceiling{Name: "other", Resource: core.ResFileSystem, Scope: core.ScopeSystem, TimePerTask: b})
		factor := float64(fRaw%30) + 1
		useful, _, err := UsefulImprovement(m, 4, core.ResExternal)
		if err != nil {
			return false
		}
		scaled, err := ScaleResource(core.ResExternal, factor).Apply(m)
		if err != nil {
			return false
		}
		before, _ := m.Bound(4)
		after, _ := scaled.Bound(4)
		speedup := after / before
		want := math.Min(factor, useful)
		return almost(speedup, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
