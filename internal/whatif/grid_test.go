package whatif

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"wroofline/internal/core"
)

// gridModel is a two-ceiling model where either resource can end up binding
// depending on the applied factors.
func gridModel() *core.Model {
	return &core.Model{
		Title: "grid-test",
		Wall:  64,
		Ceilings: []core.Ceiling{
			{Name: "mem", Resource: core.ResMemory, Scope: core.ScopeNode, TimePerTask: 2},
			{Name: "fs", Resource: core.ResFileSystem, Scope: core.ScopeSystem, TimePerTask: 0.5},
		},
	}
}

func TestGridSizeAndScenarioNames(t *testing.T) {
	g := Grid{
		Resources:   []ResourceAxis{{Resource: core.ResMemory, Factors: []float64{1, 2, 4}}},
		WallFactors: []float64{1, 2},
		IntraTask:   []IntraTaskOption{{K: 1}, {K: 2, Efficiency: 0.9}},
	}
	size, err := g.Size()
	if err != nil || size != 12 {
		t.Fatalf("size = %d, %v", size, err)
	}
	cells, err := EvaluateGrid(context.Background(), gridModel(), 8, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].Name != "base" {
		t.Errorf("identity cell name = %q", cells[0].Name)
	}
	last := cells[len(cells)-1]
	for _, want := range []string{"4x memory", "2x wall", "2x intra@0.9"} {
		if !strings.Contains(last.Name, want) {
			t.Errorf("last cell %q missing %q", last.Name, want)
		}
	}
}

func TestEvaluateGridWorkerCountInvariance(t *testing.T) {
	g := Grid{
		Resources: []ResourceAxis{
			{Resource: core.ResMemory, Factors: []float64{0.5, 1, 2, 4, 8}},
			{Resource: core.ResFileSystem, Factors: []float64{1, 2, 4}},
		},
		WallFactors: []float64{0.5, 1, 2},
		IntraTask:   []IntraTaskOption{{K: 1}, {K: 2}},
	}
	base, err := EvaluateGrid(context.Background(), gridModel(), 16, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := EvaluateGrid(context.Background(), gridModel(), 16, g, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: grid cells differ", workers)
		}
	}
}

// TestEvaluateGridLimitingCeilings pins each cell's binding ceiling, the
// label the grid study's histogram counts.
func TestEvaluateGridLimitingCeilings(t *testing.T) {
	g := Grid{
		Resources: []ResourceAxis{{Resource: core.ResFileSystem, Factors: []float64{1, 2, 4, 100}}},
	}
	cells, err := EvaluateGrid(context.Background(), gridModel(), 16, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// At p=16: fs binds at 2 TPS until scaled to 4x, where mem (8 TPS, tied
	// but listed first) takes over.
	var got []string
	for _, c := range cells {
		got = append(got, c.Outcome.Limiting)
	}
	if want := []string{"fs", "fs", "mem", "mem"}; !reflect.DeepEqual(got, want) {
		t.Errorf("limiting ceilings = %v, want %v", got, want)
	}
}

func TestEvaluateGridDefaultsAndErrors(t *testing.T) {
	// An all-empty grid is the single base cell.
	cells, err := EvaluateGrid(context.Background(), gridModel(), 4, Grid{}, 1)
	if err != nil || len(cells) != 1 || cells[0].Name != "base" {
		t.Fatalf("empty grid: %+v, %v", cells, err)
	}
	if cells[0].Outcome.Speedup != 1 {
		t.Errorf("base speedup = %v", cells[0].Outcome.Speedup)
	}
	if _, err := EvaluateGrid(context.Background(), gridModel(), 0, Grid{}, 1); err == nil {
		t.Error("non-positive p should fail")
	}
	bad := Grid{Resources: []ResourceAxis{{Resource: core.ResMemory, Factors: []float64{-1}}}}
	if _, err := EvaluateGrid(context.Background(), gridModel(), 4, bad, 1); err == nil {
		t.Error("negative factor should fail")
	}
	// Scaling a resource the model lacks fails, with the scenario named.
	missing := Grid{Resources: []ResourceAxis{{Resource: core.ResCompute, Factors: []float64{2}}}}
	if _, err := EvaluateGrid(context.Background(), gridModel(), 4, missing, 1); err == nil {
		t.Error("missing resource should fail")
	}
}
