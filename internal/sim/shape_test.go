package sim

import (
	"testing"

	"wroofline/internal/machine"
	"wroofline/internal/wfgen"
	"wroofline/internal/workflow"
)

// taskWork returns the workflow's work vectors in plan (ID) order.
func taskWork(wf *workflow.Workflow) []workflow.Work {
	tasks := wf.Tasks()
	work := make([]workflow.Work, len(tasks))
	for i, t := range tasks {
		work[i] = t.Work
	}
	return work
}

// TestShapeRebindMatchesCompile binds the work of several scenarios of one
// topology, one after another, into the same reused Plan: each binding must
// run exactly like a fresh Compile of its workflow, through the trial memo
// and the full event loop alike. The memo check is what proves a rebound
// plan never serves another work vector's memoized trial.
func TestShapeRebindMatchesCompile(t *testing.T) {
	m := machine.Ridgeline()
	base := wfgen.Spec{Family: "montage", Width: 5, NodesPerTask: 2, Net: "20 GB", Payload: "1 GB"}
	wf0, err := wfgen.Generate(&base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: m}
	s, err := NewShape(graphOf(wf0, wf0.Tasks()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trials := []Trial{{}, {OverrideExternal: true, ExternalBW: 1e9}, {}}
	var p Plan
	for k, cv := range []float64{0.4, 1.2, 0, 4, 0.4} {
		spec := base
		spec.Seed, spec.CV = uint64(k), cv
		if k == 3 {
			spec.Payload, spec.FS = "0", "0" // analytic-eligible
		}
		wf, err := wfgen.Generate(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Bind(&p, taskWork(wf)); err != nil {
			t.Fatal(err)
		}
		fresh, err := Compile(wf, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.Analytic() != fresh.Analytic() {
			t.Fatalf("scenario %d: analytic %v, fresh compile %v", k, p.Analytic(), fresh.Analytic())
		}
		got, want := make([]BatchResult, len(trials)), make([]BatchResult, len(trials))
		if err := p.RunBatch(trials, got); err != nil {
			t.Fatal(err)
		}
		if err := fresh.RunBatch(trials, want); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("scenario %d trial %d: rebound plan %+v, fresh compile %+v", k, i, got[i], want[i])
			}
		}
		res, err := p.Run(Trial{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Scalars() != want[0] {
			t.Errorf("scenario %d: event loop %+v, fresh compile %+v", k, res.Scalars(), want[0])
		}
	}
}

// TestShapeBindErrors pins that a shape reports Compile's errors: the
// shape-level ones from NewShape, and the work-level ones from Bind.
func TestShapeBindErrors(t *testing.T) {
	wf, err := wfgen.Generate(&wfgen.Spec{Family: "fanout", Width: 3, Payload: "1 GB"})
	if err != nil {
		t.Fatal(err)
	}
	g := graphOf(wf, wf.Tasks())
	noFS := machine.Perlmutter()
	noFS.FileSystemBW = nil
	noFS.BurstBufferBW = 0
	_, want := Compile(wf, nil, Config{Machine: noFS})
	if want == nil {
		t.Fatal("compile accepted a file-system workflow on a machine without one")
	}
	s, err := NewShape(g, Config{Machine: noFS})
	if err != nil {
		t.Fatalf("the shape needs no file system until work is bound: %v", err)
	}
	var p Plan
	if err := s.Bind(&p, taskWork(wf)); err == nil || err.Error() != want.Error() {
		t.Errorf("Bind error %v, Compile error %v", err, want)
	}
	if err := s.Bind(&p, taskWork(wf)[1:]); err == nil {
		t.Error("Bind accepted a work slice shorter than the task count")
	}

	g.Nodes = []int{1, 1, 4096, 1, 1}
	if _, err := NewShape(g, Config{Machine: machine.Perlmutter()}); err == nil {
		t.Error("NewShape accepted a task wider than the partition")
	}
	g.Partition = "nope"
	if _, err := NewShape(g, Config{Machine: machine.Perlmutter()}); err == nil {
		t.Error("NewShape accepted an unknown partition")
	}
}
