package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"wroofline/internal/core"
	"wroofline/internal/machine"
	"wroofline/internal/wfgen"
)

// boundFamilies are every wfgen family.
var boundFamilies = []string{"chain", "fanout", "diamond", "montage", "epigenomics", "bag", "mapreduce", "scatter"}

// boundMachines are the built-in machines the makespan wall covers; every
// partition of each is in the input space.
var boundMachines = []string{"perlmutter", "perlmutter-numa", "ridgeline", "cori"}

// boundCase is one generated workflow on one machine partition.
type boundCase struct {
	family, machine, partition string
	width, depth, nodes        int
	cv                         float64
	payload                    bool
	seed                       uint64
}

func (c boundCase) String() string {
	return fmt.Sprintf("%s w=%d d=%d nodes=%d cv=%v payload=%v seed=%d on %s/%s",
		c.family, c.width, c.depth, c.nodes, c.cv, c.payload, c.seed, c.machine, c.partition)
}

// newBoundCase maps raw draws onto the input space: all eight families,
// every partition of the four machines, width 1–64, depth 1–6, 1–4 nodes
// per task, CV 0, 0.4 or 1.2, and a 20 GB payload on or off.
func newBoundCase(fam, mach, part, width, depth, nodes, cv uint8, payload bool, seed uint64) (boundCase, error) {
	c := boundCase{
		family:  boundFamilies[int(fam)%len(boundFamilies)],
		machine: boundMachines[int(mach)%len(boundMachines)],
		width:   int(width)%64 + 1,
		depth:   int(depth)%6 + 1,
		nodes:   int(nodes)%4 + 1,
		cv:      []float64{0, 0.4, 1.2}[int(cv)%3],
		payload: payload,
		seed:    seed,
	}
	m, err := machine.ByName(c.machine)
	if err != nil {
		return c, err
	}
	parts := make([]string, 0, len(m.Partitions))
	for name := range m.Partitions {
		parts = append(parts, name)
	}
	slices.Sort(parts)
	c.partition = parts[int(part)%len(parts)]
	return c, nil
}

// checkMakespanBound simulates the case and returns an error when its
// makespan falls below the longest dependency path weighted by each task's
// roofline bound, its slowest resource at peak (core.TaskLoads): no task
// can finish faster than that, and no task starts before its predecessors
// end, so the simulator may never beat that path.
func checkMakespanBound(c boundCase) error {
	m, err := machine.ByName(c.machine)
	if err != nil {
		return err
	}
	spec := &wfgen.Spec{Family: c.family, Seed: c.seed, Width: c.width, Depth: c.depth,
		Partition: c.partition, NodesPerTask: c.nodes, CV: c.cv}
	if c.payload {
		spec.Payload = "20 GB"
	}
	if err := spec.Validate(); err != nil {
		// Outside the generator's space (montage needs width >= 2).
		return nil
	}
	wf, err := wfgen.Generate(spec)
	if err != nil {
		return err
	}
	pk, err := m.Peaks(c.partition, 0)
	if err != nil {
		return err
	}
	weight := make(map[string]float64, wf.TotalTasks())
	for _, t := range wf.Tasks() {
		loads, err := core.TaskLoads(wf.Name, t.Work, t.Nodes, &pk)
		if err != nil {
			return err
		}
		for _, l := range loads {
			weight[t.ID] = max(weight[t.ID], l.Time)
		}
	}
	_, path, err := wf.Graph().CriticalPath(weight)
	if err != nil {
		return err
	}
	res, err := Run(wf, nil, Config{Machine: m})
	if err != nil {
		return err
	}
	if res.Makespan < (1-1e-9)*path {
		return fmt.Errorf("makespan %v is below the critical-path bound %v", res.Makespan, path)
	}
	return nil
}

// TestSimMakespanAtLeastCriticalPath is the simulator half of the Eq. (1)
// oracle: across the generator space the simulated makespan is at least the
// roofline-weighted critical path.
func TestSimMakespanAtLeastCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := func() uint8 { return uint8(rng.Intn(256)) }
		c, err := newBoundCase(b(), b(), b(), b(), b(), b(), b(), rng.Intn(2) == 0, rng.Uint64())
		if err == nil {
			err = checkMakespanBound(c)
		}
		if err != nil {
			t.Logf("%v: %v", c, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func FuzzSimMakespanBound(f *testing.F) {
	for fam := uint8(0); fam < uint8(len(boundFamilies)); fam++ {
		f.Add(fam, fam%4, fam, uint8(7*fam), fam, fam, fam, fam%2 == 0, uint64(fam))
	}
	f.Fuzz(func(t *testing.T, fam, mach, part, width, depth, nodes, cv uint8, payload bool, seed uint64) {
		c, err := newBoundCase(fam, mach, part, width, depth, nodes, cv, payload, seed)
		if err == nil {
			err = checkMakespanBound(c)
		}
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	})
}
