package workloads

import (
	"reflect"
	"testing"

	"wroofline/internal/core"
	"wroofline/internal/gantt"
)

func TestBGWCeilingTimes(t *testing.T) {
	// Paper: ~1800 s at 64 nodes, ~108 s at 1024 nodes.
	if got := BGWNodeCeilingSeconds(64); !almost(got, 1768, 0.02) {
		t.Errorf("64-node ceiling = %.1fs, want ~1768 (paper quotes 1800)", got)
	}
	if got := BGWNodeCeilingSeconds(1024); !almost(got, 110.5, 0.03) {
		t.Errorf("1024-node ceiling = %.1fs, want ~110.5 (paper quotes 108)", got)
	}
}

func TestBGWEfficiencies(t *testing.T) {
	// Paper: "42% of node peak" at 64 nodes, "30%" at 1024.
	e64, err := BGWEfficiency(64)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(e64, 0.42, 0.02) {
		t.Errorf("64-node efficiency = %.3f, want ~0.42", e64)
	}
	e1024, err := BGWEfficiency(1024)
	if err != nil {
		t.Fatal(err)
	}
	if e1024 < 0.25 || e1024 > 0.32 {
		t.Errorf("1024-node efficiency = %.3f, want ~0.27-0.30", e1024)
	}
	// Strong-scaling efficiency drops with scale.
	if e1024 >= e64 {
		t.Error("efficiency should drop from 64 to 1024 nodes")
	}
	if _, err := BGWEfficiency(128); err == nil {
		t.Error("unmeasured scale should fail")
	}
}

func TestBGWWallMoves(t *testing.T) {
	cs64, err := BGW(64)
	if err != nil {
		t.Fatal(err)
	}
	cs1024, err := BGW(1024)
	if err != nil {
		t.Fatal(err)
	}
	if cs64.Model.Wall != 28 {
		t.Errorf("64-node wall = %d, want 28 (Fig 7a)", cs64.Model.Wall)
	}
	if cs1024.Model.Wall != 1 {
		t.Errorf("1024-node wall = %d, want 1 (Fig 7b)", cs1024.Model.Wall)
	}
}

// The two scenarios of Section IV-C2: 1024 nodes returns one urgent result
// quickly (low throughput); 64 nodes gives higher throughput at the wall.
func TestBGWUrgencyVsThroughputTradeoff(t *testing.T) {
	cs64, err := BGW(64)
	if err != nil {
		t.Fatal(err)
	}
	cs1024, err := BGW(1024)
	if err != nil {
		t.Fatal(err)
	}
	// Single-result latency: 1024 nodes is much faster.
	if BGWMeasured1024 >= BGWMeasured64/5 {
		t.Errorf("1024-node run should be >5x faster: %v vs %v", BGWMeasured1024, BGWMeasured64)
	}
	// Batch throughput at the wall: 64-node instances win.
	at64, _ := cs64.Model.BoundAtWall()
	at1024, _ := cs1024.Model.BoundAtWall()
	if at64 <= at1024 {
		t.Errorf("64-node throughput at wall (%v) should beat 1024-node (%v)", at64, at1024)
	}
}

func TestBGWNodeBound(t *testing.T) {
	cs, err := BGW(64)
	if err != nil {
		t.Fatal(err)
	}
	// The empirical dot is node (compute) bound: the binding ceiling at p=1
	// is the GPU FLOPS diagonal, and the dot achieves ~42% of it.
	if _, c := cs.Model.Bound(1); c.Resource != core.ResCompute {
		t.Errorf("limiting resource = %v, want compute", c.Resource)
	}
	eff := cs.Model.Efficiency(cs.Points[0])
	if !almost(eff, 0.42, 0.02) {
		t.Errorf("dot efficiency = %.3f, want ~0.42 (Fig 7a annotation)", eff)
	}
	if cls := cs.Model.ClassifyBound(cs.Points[0]); cls != core.NodeBound {
		t.Errorf("bound class = %v, want node bound", cls)
	}
	// Network and file-system ceilings are far above the compute ceiling.
	for _, c := range cs.Model.Ceilings {
		if c.Resource == core.ResCompute {
			continue
		}
		if c.TPSAt(1) < 100*cs.Model.Ceilings[0].TPSAt(1) {
			t.Errorf("ceiling %q (%v TPS) should tower over compute (%v TPS)",
				c.Name, c.TPSAt(1), cs.Model.Ceilings[0].TPSAt(1))
		}
	}
}

// The simulation regenerates the measured 4184.86 s and 404.74 s within 1%.
func TestBGWSimulationMatchesMeasured(t *testing.T) {
	for _, scale := range []int{64, 1024} {
		cs, err := BGW(scale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cs.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := bgwMeasured(scale)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(res.Makespan, want, 0.01) {
			t.Errorf("%d-node sim = %.2fs, want %.2fs +-1%%", scale, res.Makespan, want)
		}
		// Sigma starts only after Epsilon completes.
		if res.Tasks["sigma"].Start < res.Tasks["epsilon"].End-1e-9 {
			t.Errorf("%d-node: sigma overlapped epsilon", scale)
		}
	}
}

// Fig 7c: Sigma dominates the makespan (the lowest dot) at both scales, and
// Epsilon is farther from its ceiling than Sigma.
func TestBGWTaskView(t *testing.T) {
	m, points, err := BGWTaskView()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ceilings) != 4 || len(points) != 4 {
		t.Fatalf("ceilings=%d points=%d, want 4/4", len(m.Ceilings), len(points))
	}
	byLabel := map[string]core.Point{}
	for _, p := range points {
		byLabel[p.Label] = p
	}
	// Sigma has the longer makespan (lower dot) at both scales.
	if byLabel["Task-Sigma 64 nodes"].TPS >= byLabel["Task-Epsilon 64 nodes"].TPS {
		t.Error("Sigma@64 should sit below Epsilon@64")
	}
	if byLabel["Task-Sigma 1024 nodes"].TPS >= byLabel["Task-Epsilon 1024 nodes"].TPS {
		t.Error("Sigma@1024 should sit below Epsilon@1024")
	}
	// Per-task ceilings match the figure annotations within 3%:
	// E 490s/28s and S 1289s/79s at 64/1024 nodes.
	wantCeil := map[int]float64{0: 469, 1: 1299, 2: 29.3, 3: 81.2}
	for i, want := range wantCeil {
		if !almost(m.Ceilings[i].TimePerTask, want, 0.03) {
			t.Errorf("task-view ceiling %d = %.1fs, want ~%.1fs", i, m.Ceilings[i].TimePerTask, want)
		}
	}
}

// Fig 7d: the critical path ordering is invariant across scales.
func TestBGWGanttCriticalPathInvariant(t *testing.T) {
	var paths [][]string
	for _, scale := range []int{64, 1024} {
		cs, err := BGW(scale)
		if err != nil {
			t.Fatal(err)
		}
		path, total, err := cs.Workflow.CriticalPathMeasured()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := bgwMeasured(scale)
		if !almost(total, want, 1e-9) {
			t.Errorf("%d-node critical path cost = %v, want %v", scale, total, want)
		}
		paths = append(paths, path)

		// And the Gantt chart from a simulation has both tasks on the CP.
		res, err := cs.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		ch, err := gantt.FromRecorder(cs.Name, res.Recorder, path)
		if err != nil {
			t.Fatal(err)
		}
		onCP := 0
		for _, bar := range ch.Bars {
			if bar.OnCriticalPath {
				onCP++
			}
		}
		if onCP != 2 {
			t.Errorf("%d-node: critical path bars = %d, want 2", scale, onCP)
		}
	}
	if !reflect.DeepEqual(paths[0], paths[1]) {
		t.Errorf("critical path changed across scales: %v vs %v", paths[0], paths[1])
	}
}

func TestBGWInvalidScale(t *testing.T) {
	if _, err := BGW(100); err == nil {
		t.Error("unmeasured scale should fail")
	}
}
