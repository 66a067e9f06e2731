// Package pipeline analyzes workflow performance level by level. The paper
// names this its first limitation: "the total number of tasks, or critical
// path length, is hidden in the y-axis (throughput); therefore, learning
// whether the poor pipeline strategy limits the workflow's performance is
// not intuitive." This package makes it explicit: it decomposes the DAG
// into levels, bounds each level from machine peaks and the parallelism
// wall, compares with measured times, and names the bottleneck stage.
package pipeline

import (
	"fmt"

	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/report"
	"wroofline/internal/workflow"
)

// LevelStat summarizes one DAG level.
type LevelStat struct {
	// Index is the level number (0 = sources).
	Index int
	// Tasks lists the level's task ids.
	Tasks []string
	// Width is len(Tasks).
	Width int
	// Waves is how many scheduling waves the level needs under the
	// parallelism wall: ceil(Width / wall-for-this-level's-tasks).
	Waves int
	// BoundSeconds is the level-sum estimate for the level: Waves x the
	// slowest task bound in the level, where a task's bound is its slowest
	// resource at peak (core.TaskLoads), all else overlapping.
	BoundSeconds float64
	// MeasuredSeconds is the slowest measured task time in the level times
	// Waves (0 when no task carries a measurement).
	MeasuredSeconds float64
	// BottleneckTask is the task with the largest bound in the level.
	BottleneckTask string
}

// Analysis is the level decomposition of a workflow on a machine.
type Analysis struct {
	// Levels in execution order.
	Levels []LevelStat
	// BoundMakespan is the sum of level bounds — the pipeline-aware
	// level-sum estimate of the makespan. It is not a lower bound: the
	// slowest tasks of different levels may sit on different branches and
	// overlap, so a run can finish sooner.
	BoundMakespan float64
	// MeasuredMakespan is the sum of measured level times (0 when no
	// measurements are present).
	MeasuredMakespan float64
	// BottleneckLevel is the index of the level with the largest measured
	// time (falling back to the largest bound when unmeasured).
	BottleneckLevel int
}

// PipelineEfficiency returns BoundMakespan / MeasuredMakespan; 0 when there
// are no measurements.
func (a *Analysis) PipelineEfficiency() float64 {
	if a.MeasuredMakespan <= 0 {
		return 0
	}
	return a.BoundMakespan / a.MeasuredMakespan
}

// Analyze decomposes the workflow into levels and bounds each one. The
// availableNodes argument sizes the wall (0 uses the partition's full node
// count).
func Analyze(m *machine.Machine, w *workflow.Workflow, availableNodes int) (*Analysis, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pk, err := m.Peaks(w.Partition, 0)
	if err != nil {
		return nil, err
	}
	nodes := pk.Nodes
	if availableNodes > 0 {
		nodes = availableNodes
	}
	levels, err := w.Graph().Levels()
	if err != nil {
		return nil, err
	}

	a := &Analysis{}
	bestMetric := -1.0
	for i, ids := range levels {
		st := LevelStat{Index: i, Tasks: ids, Width: len(ids)}
		maxBound, maxMeasured := 0.0, 0.0
		maxNodes := 0
		for _, id := range ids {
			t, err := w.Task(id)
			if err != nil {
				return nil, err
			}
			loads, err := core.TaskLoads(w.Name, t.Work, t.Nodes, &pk)
			if err != nil {
				return nil, err
			}
			b := 0.0
			for _, l := range loads {
				b = max(b, l.Time)
			}
			if b > maxBound {
				maxBound = b
				st.BottleneckTask = id
			}
			if t.MeasuredSeconds > maxMeasured {
				maxMeasured = t.MeasuredSeconds
			}
			if t.Nodes > maxNodes {
				maxNodes = t.Nodes
			}
		}
		if maxNodes > nodes {
			return nil, fmt.Errorf("pipeline: level %d needs %d nodes per task but only %d are available",
				i, maxNodes, nodes)
		}
		wall := nodes / maxNodes
		st.Waves = (st.Width + wall - 1) / wall
		st.BoundSeconds = float64(st.Waves) * maxBound
		st.MeasuredSeconds = float64(st.Waves) * maxMeasured
		a.Levels = append(a.Levels, st)
		a.BoundMakespan += st.BoundSeconds
		a.MeasuredMakespan += st.MeasuredSeconds

		metric := st.MeasuredSeconds
		if metric == 0 {
			metric = st.BoundSeconds
		}
		if metric > bestMetric {
			bestMetric = metric
			a.BottleneckLevel = i
		}
	}
	return a, nil
}

// Table renders the analysis as aligned text.
func (a *Analysis) Table(title string) (string, error) {
	tbl := report.NewTable(title, "level", "width", "waves", "bound (s)", "measured (s)", "bottleneck task")
	for _, l := range a.Levels {
		if err := tbl.AddRowf(l.Index, l.Width, l.Waves, l.BoundSeconds, l.MeasuredSeconds, l.BottleneckTask); err != nil {
			return "", err
		}
	}
	return tbl.Text(), nil
}
