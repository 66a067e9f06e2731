package sim

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/pipeline"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

// TestPeakTimesAgree is the cross-layer wall on the one peak table. For a
// random one-task work vector on every partition of the built-in machines,
// the simulated makespan is the sum of core.TaskLoads' times, because the
// simulator runs a task's phases in series and a network phase on a
// bisection-limited fabric lasts max(NIC, bisection); and pipeline.Analyze
// bounds the one level by the max of those times.
func TestPeakTimesAgree(t *testing.T) {
	type partition struct {
		m    *machine.Machine
		name string
	}
	var parts []partition
	for _, name := range boundMachines {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(m.Partitions))
		for p := range m.Partitions {
			names = append(names, p)
		}
		slices.Sort(names)
		for _, p := range names {
			parts = append(parts, partition{m, p})
		}
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	f := func(pick uint8, nodes uint16, zero uint8, flops, mem, pcie, net, fs, ext uint32) bool {
		p := parts[int(pick)%len(parts)]
		pk, err := p.m.Peaks(p.name, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Each bit of zero drops one component, so phases go missing too.
		draw := func(bit uint, v uint32, unit float64) float64 {
			if zero&(1<<bit) != 0 {
				return 0
			}
			return float64(v) * unit
		}
		work := workflow.Work{
			Flops:         units.Flops(draw(0, flops, 1e6)),
			MemBytes:      units.Bytes(draw(1, mem, 1e3)),
			PCIeBytes:     units.Bytes(draw(2, pcie, 1e3)),
			NetworkBytes:  units.Bytes(draw(3, net, 1e3)),
			FSBytes:       units.Bytes(draw(4, fs, 1e3)),
			ExternalBytes: units.Bytes(draw(5, ext, 1e1)),
		}
		if pk.PCIe <= 0 {
			work.PCIeBytes = 0
		}
		n := int(nodes)%pk.Nodes + 1
		wf := workflow.New("probe", p.name)
		if err := wf.AddTask(&workflow.Task{ID: "a", Nodes: n, Work: work}); err != nil {
			t.Fatal(err)
		}
		loads, err := core.TaskLoads(wf.Name, work, n, &pk)
		if err != nil {
			t.Fatal(err)
		}
		sum, slowest := 0.0, 0.0
		for r, l := range loads {
			slowest = max(slowest, l.Time)
			if core.Resource(r) != core.ResNetwork && core.Resource(r) != core.ResBisection {
				sum += l.Time
			}
		}
		sum += max(loads[core.ResNetwork].Time, loads[core.ResBisection].Time)

		res, err := Run(wf, nil, Config{Machine: p.m})
		if err != nil {
			t.Fatal(err)
		}
		a, err := pipeline.Analyze(p.m, wf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !near(res.Makespan, sum) || !near(a.Levels[0].BoundSeconds, slowest) {
			t.Logf("%s/%s nodes=%d %+v: makespan %v, sum of loads %v; pipeline bound %v, slowest load %v",
				p.m.Name, p.name, n, work, res.Makespan, sum, a.Levels[0].BoundSeconds, slowest)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestNoPeakErrorEveryLayer runs work on a resource the partition has no
// peak for through the model, the pipeline bound and the simulator: each
// reports the one named error behind its package prefix.
func TestNoPeakErrorEveryLayer(t *testing.T) {
	cpu := func(m *machine.Machine) *machine.Partition { return m.Partitions[machine.PartCPU] }
	for _, tc := range []struct {
		resource string
		work     workflow.Work
		strip    func(m *machine.Machine)
		want     string
	}{
		{"compute", workflow.Work{Flops: units.GFLOP}, func(m *machine.Machine) { cpu(m).NodeFlops = 0 },
			"workflow probe computes but partition Perlmutter/cpu has no compute peak"},
		{"memory", workflow.Work{MemBytes: units.GB}, func(m *machine.Machine) { cpu(m).NodeMemBW = 0 },
			"workflow probe moves memory data but partition Perlmutter/cpu has no memory bandwidth"},
		{"pcie", workflow.Work{PCIeBytes: units.GB}, func(*machine.Machine) {},
			"workflow probe moves PCIe data but partition Perlmutter/cpu has no PCIe bandwidth"},
		{"network", workflow.Work{NetworkBytes: units.GB}, func(m *machine.Machine) { cpu(m).NodeNICBW = 0 },
			"workflow probe moves network data but partition Perlmutter/cpu has no NIC bandwidth"},
		{"filesystem", workflow.Work{FSBytes: units.GB}, func(m *machine.Machine) { delete(m.FileSystemBW, machine.PartCPU) },
			"workflow probe moves file-system data but partition Perlmutter/cpu has no file-system bandwidth"},
		{"external", workflow.Work{ExternalBytes: units.GB}, func(m *machine.Machine) { m.ExternalBW = 0 },
			"workflow probe stages external data but partition Perlmutter/cpu has no external bandwidth"},
	} {
		t.Run(tc.resource, func(t *testing.T) {
			m := machine.Perlmutter()
			tc.strip(m)
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			wf := workflow.New("probe", machine.PartCPU)
			if err := wf.AddTask(&workflow.Task{ID: "a", Nodes: 1, Work: tc.work}); err != nil {
				t.Fatal(err)
			}
			_, buildErr := core.Build(m, wf, core.BuildOptions{})
			_, analyzeErr := pipeline.Analyze(m, wf, 0)
			_, compileErr := Compile(wf, nil, Config{Machine: m})
			for _, layer := range []struct {
				name, prefix string
				err          error
			}{
				{"core.Build", "core: ", buildErr},
				{"pipeline.Analyze", "core: ", analyzeErr},
				{"sim.Compile", "sim: ", compileErr},
			} {
				var e *machine.NoPeakError
				if !errors.As(layer.err, &e) || e.Resource != tc.resource || layer.err.Error() != layer.prefix+tc.want {
					t.Errorf("%s: err = %v, want %q", layer.name, layer.err, layer.prefix+tc.want)
				}
			}
		})
	}
}
