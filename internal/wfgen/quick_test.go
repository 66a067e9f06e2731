package wfgen

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"wroofline/internal/sweep"
)

// specFrom maps raw quick-generated integers onto a valid spec, keeping
// sizes small enough that a thousand generations stay fast under -race.
func specFrom(familyIdx, width, depth, cv uint16, seed uint64) *Spec {
	families := allFamilies()
	family := families[int(familyIdx)%len(families)]
	w := 1 + int(width%24)
	if family == "montage" && w < 2 {
		w = 2
	}
	return &Spec{
		Family:  family,
		Seed:    seed,
		Width:   w,
		Depth:   1 + int(depth%6),
		CV:      float64(cv%9) / 10, // 0 .. 0.8
		Payload: "512 MB",
	}
}

// The generator's structural contract, checked over the randomized spec
// space: every DAG is acyclic, matches the family's closed-form task count,
// width, and critical-path length, and regenerates bit-identically from the
// same seed.
func TestQuickShapeInvariants(t *testing.T) {
	prop := func(familyIdx, width, depth, cv uint16, seed uint64) bool {
		spec := specFrom(familyIdx, width, depth, cv, seed)
		shape, err := spec.Shape()
		if err != nil {
			t.Logf("shape(%+v): %v", spec, err)
			return false
		}
		wf, err := Generate(spec)
		if err != nil {
			t.Logf("generate(%+v): %v", spec, err)
			return false
		}
		g := wf.Graph()
		if _, err := g.TopoSort(); err != nil {
			t.Logf("%s: not a DAG: %v", wf.Name, err)
			return false
		}
		if wf.TotalTasks() != shape.Tasks {
			t.Logf("%s: tasks = %d, want %d", wf.Name, wf.TotalTasks(), shape.Tasks)
			return false
		}
		gotWidth, err := g.Width()
		if err != nil || gotWidth != shape.Width {
			t.Logf("%s: width = %d (%v), want %d", wf.Name, gotWidth, err, shape.Width)
			return false
		}
		levels, err := g.CriticalPathLength()
		if err != nil || levels != shape.Levels {
			t.Logf("%s: levels = %d (%v), want %d", wf.Name, levels, err, shape.Levels)
			return false
		}
		a, err := json.Marshal(wf)
		if err != nil {
			t.Logf("%s: marshal: %v", wf.Name, err)
			return false
		}
		wf2, err := Generate(spec)
		if err != nil {
			return false
		}
		b, err := json.Marshal(wf2)
		if err != nil {
			return false
		}
		if !bytes.Equal(a, b) {
			t.Logf("%s: same seed generated different workflows", wf.Name)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Generation is bit-identical at any worker count: fanning a batch of specs
// over the sweep pool at 1 worker and at GOMAXPROCS yields the same bytes
// per scenario. Run under -race this also proves generation shares no
// hidden mutable state.
func TestGenerateByteEqualAcrossWorkerCounts(t *testing.T) {
	const n = 64
	families := allFamilies()
	gen := func(workers int) [][]byte {
		out, err := sweep.Map(context.Background(), n, workers, func(_ context.Context, i int) ([]byte, error) {
			spec := &Spec{
				Family: families[i%len(families)],
				Seed:   sweep.TrialSeed(99, i),
				Width:  2 + i%7,
				Depth:  1 + i%5,
				CV:     0.4,
			}
			wf, err := Generate(spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(wf)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := gen(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := gen(workers)
		for i := range base {
			if !bytes.Equal(base[i], got[i]) {
				t.Errorf("workers=%d scenario %d differs from workers=1", workers, i)
			}
		}
	}
}
