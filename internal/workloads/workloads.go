// Package workloads reproduces the paper's four case studies — LCLS,
// BerkeleyGW, CosmoFlow, and GPTune — from the analytical-model inputs
// published in the paper's artifact appendix. Each case study bundles:
//
//   - the machine and characterized workflow,
//   - the Workflow Roofline model with the figure's exact ceilings,
//   - the paper's empirical points (reported makespans),
//   - a discrete-event simulation setup whose calibrated phase programs
//     regenerate those makespans from first principles, and
//   - the expected headline numbers, used by tests and EXPERIMENTS.md.
//
// Where the paper reports only totals (e.g. BGW's 4184.86 s end-to-end), the
// split across phases is calibrated and documented inline; every calibration
// is pinned by a number the paper does state.
package workloads

import (
	"fmt"

	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/sim"
	"wroofline/internal/workflow"
)

// CaseStudy is one fully-specified experiment.
type CaseStudy struct {
	// Name identifies the case study and scenario, e.g. "LCLS/Cori-HSW".
	Name string
	// Figure names the paper element this reproduces, e.g. "Fig 5a".
	Figure string
	// Machine is the system model.
	Machine *machine.Machine
	// Workflow is the characterized workflow.
	Workflow *workflow.Workflow
	// Model is the Workflow Roofline with the paper's ceilings.
	Model *core.Model
	// Points are the paper's empirical dots.
	Points []core.Point
	// Programs are the simulation phase programs per task.
	Programs map[string]sim.Program
	// SimConfig configures the simulator run.
	SimConfig sim.Config
}

// Simulate runs the case study's discrete-event simulation.
func (c *CaseStudy) Simulate() (*sim.Result, error) {
	if c.Workflow == nil {
		return nil, fmt.Errorf("workloads: case study %s has no workflow", c.Name)
	}
	return sim.Run(c.Workflow, c.Programs, c.SimConfig)
}

// Compile builds a reusable simulation plan for the case study. Ensemble
// runners that simulate the same case many times (Monte Carlo contention
// trials, failure ensembles) compile once and run per-trial variations
// against the shared plan instead of rebuilding the workflow every trial.
func (c *CaseStudy) Compile() (*sim.Plan, error) {
	if c.Workflow == nil {
		return nil, fmt.Errorf("workloads: case study %s has no workflow", c.Name)
	}
	return sim.Compile(c.Workflow, c.Programs, c.SimConfig)
}
