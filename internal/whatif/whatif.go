// Package whatif evaluates hypothetical system or workflow changes against a
// Workflow Roofline model: scale a resource's peak, move the parallelism
// wall, or shift intra-task parallelism, then compare attainable bounds.
// It quantifies the paper's architect-facing insight — improving the compute
// peak of a system-bound workflow like LCLS yields exactly nothing — and
// its inverse: how much improvement of the *binding* resource is useful
// before another ceiling takes over.
package whatif

import (
	"fmt"
	"math"

	"wroofline/internal/core"
	"wroofline/internal/report"
)

// Perturbation is a named model transformation.
type Perturbation struct {
	// Name labels the scenario, e.g. "10x compute".
	Name string
	// Apply returns a transformed copy (it must not mutate its input).
	Apply func(*core.Model) (*core.Model, error)
}

// clone deep-copies a model (ceilings slice included).
func clone(m *core.Model) *core.Model {
	out := &core.Model{Title: m.Title, Wall: m.Wall, Targets: m.Targets}
	out.Ceilings = make([]core.Ceiling, len(m.Ceilings))
	copy(out.Ceilings, m.Ceilings)
	return out
}

// ScaleResource returns a perturbation that makes every ceiling of the
// given resource `factor` times faster (factor > 1 improves it).
func ScaleResource(res core.Resource, factor float64) Perturbation {
	return Perturbation{
		Name: fmt.Sprintf("%gx %s", factor, res),
		Apply: func(m *core.Model) (*core.Model, error) {
			if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
				return nil, fmt.Errorf("whatif: scale factor must be positive and finite, got %v", factor)
			}
			out := clone(m)
			touched := false
			for i := range out.Ceilings {
				if out.Ceilings[i].Resource == res {
					out.Ceilings[i].TimePerTask /= factor
					touched = true
				}
			}
			if !touched {
				return nil, fmt.Errorf("whatif: model has no %s ceiling", res)
			}
			return out, nil
		},
	}
}

// ScaleWall returns a perturbation that multiplies the parallelism wall
// (e.g. a bigger machine or a wider queue allocation).
func ScaleWall(factor float64) Perturbation {
	return Perturbation{
		Name: fmt.Sprintf("%gx nodes", factor),
		Apply: func(m *core.Model) (*core.Model, error) {
			if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
				return nil, fmt.Errorf("whatif: wall factor must be positive and finite, got %v", factor)
			}
			out := clone(m)
			out.Wall = int(math.Max(1, math.Floor(float64(m.Wall)*factor)))
			return out, nil
		},
	}
}

// IntraTask returns the Fig 2c perturbation: k-times more nodes per task at
// the given strong-scaling efficiency.
func IntraTask(k, efficiency float64) Perturbation {
	return Perturbation{
		Name: fmt.Sprintf("%gx intra-task @ %g eff", k, efficiency),
		Apply: func(m *core.Model) (*core.Model, error) {
			return m.ScaleIntraTask(k, efficiency)
		},
	}
}

// Outcome compares one scenario against the base model at a fixed number of
// parallel tasks.
type Outcome struct {
	// Name echoes the perturbation.
	Name string
	// BoundTPS is the attainable throughput in the scenario.
	BoundTPS float64
	// Limiting names the binding ceiling.
	Limiting string
	// Speedup is BoundTPS over the base model's bound (1.0 = no effect).
	Speedup float64
	// MeetsThroughput and MeetsMakespan report target feasibility at the
	// scenario's bound (always true when the model declares no targets).
	MeetsThroughput, MeetsMakespan bool
}

// Evaluate applies each perturbation to the base model and compares bounds
// at p parallel tasks (clipped at each scenario's wall). Outcomes come back
// in perturbation order, base first. Perturbation Apply functions must not
// mutate the base model; every Perturbation this package constructs clones
// it.
func Evaluate(base *core.Model, p float64, perts []Perturbation) ([]Outcome, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, fmt.Errorf("whatif: parallel tasks must be positive, got %v", p)
	}
	baseBound, baseLimit := base.Bound(p)
	out := make([]Outcome, 0, len(perts)+1)
	out = append(out, outcomeFor("base", base, p, baseBound, baseLimit.Name, baseBound))
	for _, pert := range perts {
		m, err := pert.Apply(base)
		if err != nil {
			return nil, fmt.Errorf("whatif: %s: %w", pert.Name, err)
		}
		bound, limit := m.Bound(p)
		out = append(out, outcomeFor(pert.Name, m, p, bound, limit.Name, baseBound))
	}
	return out, nil
}

func outcomeFor(name string, m *core.Model, p, bound float64, limiting string, baseBound float64) Outcome {
	o := Outcome{
		Name:            name,
		BoundTPS:        bound,
		Limiting:        limiting,
		Speedup:         1,
		MeetsThroughput: true,
		MeetsMakespan:   true,
	}
	if baseBound > 0 && !math.IsInf(baseBound, 1) && !math.IsInf(bound, 1) {
		o.Speedup = bound / baseBound
	}
	if t := m.Targets; t != nil {
		if t.ThroughputTPS > 0 {
			o.MeetsThroughput = bound >= t.ThroughputTPS
		}
		if mt := t.MakespanTPS(); mt > 0 {
			o.MeetsMakespan = bound >= mt
		}
	}
	return o
}

// UsefulImprovement returns how much speeding up the given resource can help
// at p parallel tasks: the multiplicative factor at which another ceiling
// takes over, and the resulting bound speedup. A non-binding resource
// returns (1, 1) — the paper's "going for a faster computing unit is a bad
// idea" in one call. When the resource is the only ceiling, the factor is
// +Inf.
func UsefulImprovement(m *core.Model, p float64, res core.Resource) (factor, speedup float64, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if p <= 0 {
		return 0, 0, fmt.Errorf("whatif: parallel tasks must be positive, got %v", p)
	}
	bound, limit := m.Bound(p)
	if limit.Resource != res {
		return 1, 1, nil
	}
	// Find the lowest bound among ceilings of other resources.
	pc := math.Min(p, float64(m.Wall))
	next := math.Inf(1)
	for _, c := range m.Ceilings {
		if c.Resource == res || c.Scenario {
			continue
		}
		if v := c.TPSAt(pc); v < next {
			next = v
		}
	}
	if math.IsInf(next, 1) {
		return math.Inf(1), math.Inf(1), nil
	}
	return next / bound, next / bound, nil
}

// Table renders outcomes as an aligned-text table.
func Table(title string, outcomes []Outcome) (string, error) {
	tbl := report.NewTable(title, "scenario", "bound TPS", "speedup", "limited by", "throughput ok", "makespan ok")
	for _, o := range outcomes {
		if err := tbl.AddRowf(o.Name, o.BoundTPS, o.Speedup, o.Limiting,
			fmt.Sprintf("%t", o.MeetsThroughput), fmt.Sprintf("%t", o.MeetsMakespan)); err != nil {
			return "", err
		}
	}
	return tbl.Text(), nil
}
