package whatif

import (
	"context"
	"fmt"
	"strings"

	"wroofline/internal/core"
	"wroofline/internal/sweep"
)

// ResourceAxis is one grid dimension: a resource whose peak sweeps through
// the given multiplicative factors.
type ResourceAxis struct {
	// Resource identifies the ceiling set to scale.
	Resource core.Resource
	// Factors are the peak multipliers (1 = unchanged).
	Factors []float64
}

// IntraTaskOption is one point of the intra-task-parallelism dimension:
// k-times the nodes per task at the given strong-scaling efficiency
// (k = 1 means unchanged; Efficiency 0 defaults to 1).
type IntraTaskOption struct {
	K, Efficiency float64
}

// Grid is a cartesian what-if space: every combination of one factor per
// resource axis, one wall factor, and one intra-task option becomes a
// scenario. Empty dimensions contribute the identity (factor 1).
type Grid struct {
	// Resources are the per-resource peak axes.
	Resources []ResourceAxis
	// WallFactors scale the parallelism wall (bigger machine / wider queue).
	WallFactors []float64
	// IntraTask holds the Fig 2c options.
	IntraTask []IntraTaskOption
}

// dims returns the per-dimension sizes in evaluation order: resource axes
// first, then wall, then intra-task (the last dimension varies fastest).
func (g Grid) dims() []int {
	dims := make([]int, 0, len(g.Resources)+2)
	for _, ax := range g.Resources {
		dims = append(dims, max(1, len(ax.Factors)))
	}
	dims = append(dims, max(1, len(g.WallFactors)))
	dims = append(dims, max(1, len(g.IntraTask)))
	return dims
}

// Size returns the scenario count.
func (g Grid) Size() (int, error) {
	return sweep.GridSize(g.dims())
}

// scenario composes the perturbation chain for one cell. The identity cell
// (all factors 1) gets the name "base".
func (g Grid) scenario(coords []int) (string, []Perturbation, error) {
	var (
		names []string
		perts []Perturbation
	)
	for i, ax := range g.Resources {
		if len(ax.Factors) == 0 {
			continue
		}
		f := ax.Factors[coords[i]]
		if f != 1 {
			perts = append(perts, ScaleResource(ax.Resource, f))
			names = append(names, fmt.Sprintf("%gx %s", f, ax.Resource))
		}
	}
	if len(g.WallFactors) > 0 {
		if f := g.WallFactors[coords[len(g.Resources)]]; f != 1 {
			perts = append(perts, ScaleWall(f))
			names = append(names, fmt.Sprintf("%gx wall", f))
		}
	}
	if len(g.IntraTask) > 0 {
		opt := g.IntraTask[coords[len(g.Resources)+1]]
		eff := opt.Efficiency
		if eff == 0 {
			eff = 1
		}
		if opt.K != 1 {
			perts = append(perts, IntraTask(opt.K, eff))
			names = append(names, fmt.Sprintf("%gx intra@%g", opt.K, eff))
		}
	}
	if len(perts) == 0 {
		return "base", nil, nil
	}
	return strings.Join(names, " + "), perts, nil
}

// Cell is one evaluated grid scenario.
type Cell struct {
	// Index is the cell's row-major position; Name describes the applied
	// combination ("base" for the identity cell).
	Index int
	Name  string
	// Outcome compares the cell against the unperturbed base model.
	Outcome Outcome
}

// EvaluateGrid evaluates every cell of the grid at p parallel tasks on the
// sweep worker pool. Cells come back in row-major order, bit-identical at
// any worker count.
func EvaluateGrid(ctx context.Context, base *core.Model, p float64, g Grid, workers int) ([]Cell, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("whatif: parallel tasks must be positive, got %v", p)
	}
	dims := g.dims()
	size, err := sweep.GridSize(dims)
	if err != nil {
		return nil, err
	}
	baseBound, _ := base.Bound(p)
	return sweep.Map(ctx, size, workers, func(_ context.Context, i int) (Cell, error) {
		coords, err := sweep.GridCoords(dims, i)
		if err != nil {
			return Cell{}, err
		}
		name, perts, err := g.scenario(coords)
		if err != nil {
			return Cell{}, err
		}
		m := base
		for _, pert := range perts {
			if m, err = pert.Apply(m); err != nil {
				return Cell{}, fmt.Errorf("whatif: %s: %w", name, err)
			}
		}
		bound, limit := m.Bound(p)
		return Cell{Index: i, Name: name, Outcome: outcomeFor(name, m, p, bound, limit.Name, baseBound)}, nil
	})
}
