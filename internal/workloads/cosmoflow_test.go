package workloads

import (
	"testing"

	"wroofline/internal/core"
)

func TestCosmoCeilingConstants(t *testing.T) {
	// Fig 8 annotations: PCIe makespan 0.8 s, HBM makespan 4.2 s.
	if got := CosmoPCIeSecondsPerEpoch(); !almost(got, 0.78, 0.03) {
		t.Errorf("PCIe ceiling = %.3fs, want ~0.78 (paper rounds to 0.8)", got)
	}
	if got := CosmoHBMSecondsPerEpoch(); !almost(got, 4.2, 0.02) {
		t.Errorf("HBM ceiling = %.3fs, want ~4.2", got)
	}
	// HBM bound is below (slower than) PCIe: HBM is the ultimate limit.
	if CosmoHBMSecondsPerEpoch() <= CosmoPCIeSecondsPerEpoch() {
		t.Error("HBM per-epoch time should exceed PCIe per-epoch time")
	}
}

func TestCosmoModelShape(t *testing.T) {
	cs, err := CosmoFlow(12)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Model.Wall != 12 {
		t.Errorf("wall = %d, want 12 (1536/128)", cs.Model.Wall)
	}
	// At the wall the binding resource is node memory (HBM): 12/4.2 = 2.857
	// epochs/s vs the FS horizontal at 2.8 — the two nearly coincide, with
	// HBM binding just below the FS line only for p < 12.
	if _, c := cs.Model.Bound(6); c.Resource != core.ResMemory {
		t.Errorf("limiting resource at 6 instances = %v, want memory (HBM)", c.Resource)
	}
	bound, _ := cs.Model.BoundAtWall()
	if !almost(bound, 2.8, 0.03) {
		t.Errorf("bound at wall = %.3f epochs/s, want ~2.8", bound)
	}
}

func TestCosmoInstancesValidation(t *testing.T) {
	for _, n := range []int{0, -1, 13} {
		if _, err := CosmoFlow(n); err == nil {
			t.Errorf("CosmoFlow(%d) should fail", n)
		}
	}
}

// Fig 8's empirical claim: throughput grows linearly with the number of
// instances up to the 12-instance wall.
func TestCosmoThroughputLinear(t *testing.T) {
	points, err := CosmoFlowSweep(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 {
		t.Fatalf("points = %d", len(points))
	}
	if dev := CosmoLinearityError(points); dev > 0.10 {
		t.Errorf("worst deviation from linear = %.1f%%, want <10%%", dev*100)
	}
	// Monotone increasing.
	for i := 1; i < len(points); i++ {
		if points[i].TPS <= points[i-1].TPS {
			t.Errorf("throughput not increasing at %d instances: %v -> %v",
				i+1, points[i-1].TPS, points[i].TPS)
		}
	}
	// All points stay below the model bound at their x.
	cs, err := CosmoFlow(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		bound, _ := cs.Model.Bound(p.ParallelTasks)
		if p.TPS > bound*1.001 {
			t.Errorf("point %s (%.3f eps/s) exceeds its bound %.3f", p.Label, p.TPS, bound)
		}
	}
	// The 12-instance point approaches the HBM ceiling: at least 60% of it
	// ("HBM is ultimately the limitation").
	last := points[11]
	bound, limit := cs.Model.Bound(12)
	if last.TPS < 0.6*bound {
		t.Errorf("12-instance point %.3f should be within 60%% of the bound %.3f (%s)",
			last.TPS, bound, limit.Name)
	}
}

func TestCosmoSweepValidation(t *testing.T) {
	if _, err := CosmoFlowSweep(0); err == nil {
		t.Error("zero sweep should fail")
	}
	if _, err := CosmoFlowSweep(13); err == nil {
		t.Error("beyond-wall sweep should fail")
	}
}

func TestCosmoLinearityErrorEdgeCases(t *testing.T) {
	if CosmoLinearityError(nil) == 0 {
		t.Error("empty series should report infinite deviation")
	}
	perfect := []core.Point{{TPS: 1}, {TPS: 2}, {TPS: 3}}
	if dev := CosmoLinearityError(perfect); dev != 0 {
		t.Errorf("perfect series deviation = %v", dev)
	}
	if CosmoLinearityError([]core.Point{{TPS: 0}}) == 0 {
		t.Error("zero base should report infinite deviation")
	}
}

// The throughput benchmark's peak node usage equals instances x 128 and
// stays within the 1536 available nodes.
func TestCosmoSimNodeUsage(t *testing.T) {
	cs, err := CosmoFlow(12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakNodesInUse != 12*128 {
		t.Errorf("peak nodes = %d, want 1536", res.PeakNodesInUse)
	}
	// Breakdown sanity: HBM dominates PCIe per epoch.
	bd := res.Breakdown()
	if bd["hbm"] <= bd["pcie"] {
		t.Errorf("HBM time (%v) should exceed PCIe time (%v)", bd["hbm"], bd["pcie"])
	}
}
