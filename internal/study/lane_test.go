package study

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"wroofline/internal/machine"
	"wroofline/internal/plancache"
	"wroofline/internal/wfgen"
)

// laneMachines are the machines the lane wall covers: the flat node, the
// NUMA node and the bisection-limited fabric.
var laneMachines = []string{"perlmutter", "perlmutter-numa", "ridgeline"}

// laneFamilies are every wfgen family: the default corpus cycle and the
// archetype families a template may name.
var laneFamilies = append(wfgen.Families(), "bag", "mapreduce", "scatter")

// laneCase is one generated corpus scenario for the lane wall.
type laneCase struct {
	Machine string
	Spec    wfgen.Spec
	Index   int
}

// Generate draws a scenario across every family, widths up to 12000,
// CV in {0, 0.4, 1.2, 4}, payload on or off, zero work components, 1 to 4
// nodes per task and occasional partitions and node counts the machine
// rejects, so error paths are compared too.
func (laneCase) Generate(r *rand.Rand, _ int) reflect.Value {
	s := wfgen.Spec{
		Family:       laneFamilies[r.Intn(len(laneFamilies))],
		Seed:         r.Uint64(),
		Width:        1 + r.Intn(9),
		Depth:        1 + r.Intn(5),
		NodesPerTask: 1 + r.Intn(4),
		CV:           []float64{0, 0.4, 1.2, 4}[r.Intn(4)],
	}
	if r.Intn(40) == 0 {
		s.Width = 1000 + r.Intn(11001) // up to 12000
		s.Depth = 1 + r.Intn(2)
	}
	if s.Family == "montage" && s.Width < 2 {
		s.Width = 2
	}
	if r.Intn(2) == 0 {
		s.Payload = []string{"1 GB", "512 MB", "0", "3 TB"}[r.Intn(4)]
	}
	zero := func(p *string) {
		if r.Intn(4) == 0 {
			*p = "0"
		}
	}
	zero(&s.Flops)
	zero(&s.Mem)
	zero(&s.Net)
	zero(&s.FS)
	if r.Intn(3) == 0 {
		s.Net = "20 GB"
	}
	switch r.Intn(20) {
	case 0:
		s.Partition = "gpu"
	case 1:
		s.Partition = "nope"
	case 2:
		s.NodesPerTask = 1 << 20
	}
	return reflect.ValueOf(laneCase{
		Machine: laneMachines[r.Intn(len(laneMachines))],
		Spec:    s,
		Index:   r.Intn(1000),
	})
}

// checkLane runs the case on the lane (with its reference fallback) and on
// the reference path alone. A scenario the reference evaluates must run on
// the lane and match it bit for bit; one the reference rejects must leave
// the lane and report the reference's error text. rejected reports the
// latter.
func checkLane(c laneCase) (rejected bool, err error) {
	m, err := machine.ByName(c.Machine)
	if err != nil {
		return false, err
	}
	if err := c.Spec.Validate(); err != nil {
		return true, nil // runCorpus rejects the template before any scenario runs
	}
	var f laneFamily
	got, lane, gotErr := f.scenario(&c.Spec, m, nil, c.Index, new(laneScratch))
	want, wantErr := referenceScenario(&c.Spec, m, c.Index)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			return true, fmt.Errorf("%s %+v: error %v, reference %v", c.Machine, c.Spec, gotErr, wantErr)
		}
		if lane {
			return true, fmt.Errorf("%s %+v: lane evaluated a scenario the reference rejects (%v)", c.Machine, c.Spec, wantErr)
		}
		return true, nil
	}
	if gotErr != nil || !lane {
		return false, fmt.Errorf("%s %+v: lane=%v err=%v, reference succeeded", c.Machine, c.Spec, lane, gotErr)
	}
	if got.family != want.family || got.tasks != want.tasks || got.limiting != want.limiting ||
		math.Float64bits(got.boundTPS) != math.Float64bits(want.boundTPS) ||
		math.Float64bits(got.makespan) != math.Float64bits(want.makespan) {
		return false, fmt.Errorf("%s %+v:\n lane      %+v\n reference %+v", c.Machine, c.Spec, got, want)
	}
	return false, nil
}

// TestCorpusLaneMatchesReference is the lane's differential wall: across
// the generator space, every corpusScenario the lane computes — task count,
// bound bits, limiting resource, makespan bits — and every error a corpus
// request reports equals Generate → core.Build → sim.Compile → RunScalar.
func TestCorpusLaneMatchesReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 600, Rand: rand.New(rand.NewSource(24))}
	if testing.Short() {
		cfg.MaxCount = 150
	}
	evaluated, rejected := 0, 0
	if err := quick.Check(func(c laneCase) bool {
		rej, err := checkLane(c)
		if err != nil {
			t.Error(err)
			return false
		}
		if rej {
			rejected++
		} else {
			evaluated++
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d scenarios matched on the lane, %d rejected with the reference's error", evaluated, rejected)
	if evaluated < cfg.MaxCount/2 || rejected == 0 {
		t.Fatalf("wall exercised %d lane scenarios and %d rejections; want most on the lane and some rejected", evaluated, rejected)
	}
}

// FuzzCorpusLane feeds arbitrary generator parameters through the same
// differential as TestCorpusLaneMatchesReference.
func FuzzCorpusLane(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint16(6), uint8(3), uint8(1), uint8(1), uint64(7), true, uint8(0))
	f.Add(uint8(2), uint8(2), uint16(12000), uint8(1), uint8(2), uint8(0), uint64(1), false, uint8(5))
	f.Add(uint8(0), uint8(4), uint16(5), uint8(4), uint8(3), uint8(3), uint64(99), true, uint8(15))
	f.Add(uint8(1), uint8(5), uint16(40), uint8(2), uint8(0), uint8(2), uint64(5), true, uint8(0))
	f.Add(uint8(2), uint8(6), uint16(7), uint8(3), uint8(1), uint8(1), uint64(13), false, uint8(2))
	f.Add(uint8(0), uint8(7), uint16(1), uint8(5), uint8(1), uint8(2), uint64(21), true, uint8(0))
	f.Fuzz(func(t *testing.T, mach, fam uint8, width uint16, depth, nodes, cv uint8, seed uint64, payload bool, zeros uint8) {
		s := wfgen.Spec{
			Family:       laneFamilies[int(fam)%len(laneFamilies)],
			Seed:         seed,
			Width:        1 + int(width)%12000,
			Depth:        1 + int(depth)%6,
			NodesPerTask: 1 + int(nodes)%4,
			CV:           []float64{0, 0.4, 1.2, 4}[int(cv)%4],
		}
		if s.Width*s.Depth > 40000 {
			s.Depth = 1
		}
		if payload {
			s.Payload = "1 GB"
		}
		for k, p := range []*string{&s.Flops, &s.Mem, &s.Net, &s.FS} {
			if zeros&(1<<k) != 0 {
				*p = "0"
			}
		}
		c := laneCase{Machine: laneMachines[int(mach)%len(laneMachines)], Spec: s, Index: int(seed % 1000)}
		if _, err := checkLane(c); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCorpusShapeKeyCoversShape is the shape key's reflection guard: every
// wfgen.Spec field either enters plancache.ShapeKey or provably never
// changes the compiled corpus shape. The seed, CV and volumes must not
// fragment the key, and a field added to wfgen.Spec later fails here until
// it is classified.
func TestCorpusShapeKeyCoversShape(t *testing.T) {
	m := machine.PerlmutterNUMA()
	base := wfgen.Spec{
		Family: "diamond", Seed: 5, Width: 6, Depth: 4, Partition: "cpu", NodesPerTask: 2,
		Flops: "300 GFLOP", Mem: "60 GB", Net: "2 GB", FS: "20 GB", Payload: "1 GB", CV: 0.3,
	}
	keyed := map[string]bool{"Family": true, "Width": true, "Depth": true, "Partition": true, "NodesPerTask": true}
	drawn := map[string]string{"Flops": "301 GFLOP", "Mem": "61 GB", "Net": "3 GB", "FS": "21 GB", "Payload": "2 GB"}
	drawnNums := map[string]bool{"Seed": true, "CV": true}
	want := plancache.ShapeKey(&base, m.Name)
	wantShape, err := compileCorpusShape(&base, m)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		spec := base
		v := reflect.ValueOf(&spec).Elem().Field(i)
		switch {
		case keyed[name]:
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			default:
				t.Fatalf("wfgen.Spec.%s has kind %s: perturb it here", name, v.Kind())
			}
			if plancache.ShapeKey(&spec, m.Name) == want {
				t.Errorf("changing wfgen.Spec.%s leaves ShapeKey unchanged, but the shape reads it", name)
			}
			continue
		case drawn[name] != "":
			v.SetString(drawn[name])
		case drawnNums[name] && v.Kind() == reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case drawnNums[name] && v.Kind() == reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		default:
			t.Fatalf("wfgen.Spec.%s is unclassified: key it in plancache.ShapeKey or show here that the shape ignores it", name)
		}
		if plancache.ShapeKey(&spec, m.Name) != want {
			t.Errorf("changing wfgen.Spec.%s fragments ShapeKey, but only the draws read it", name)
		}
		got, err := compileCorpusShape(&spec, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantShape) {
			t.Errorf("changing wfgen.Spec.%s changed the compiled shape; key it in plancache.ShapeKey", name)
		}
	}
	if plancache.ShapeKey(&base, "ridgeline") == want {
		t.Error("the machine does not enter ShapeKey")
	}
}

// TestCorpusShapeCacheBound runs width-12000 corpus requests and checks that
// no shape above maxCachedShapeTasks stays in the plan cache, while small
// shapes are cached and shared.
func TestCorpusShapeCacheBound(t *testing.T) {
	plans := plancache.New(512, 16)
	m := machine.PerlmutterNUMA()
	tmpls := []wfgen.Spec{
		{Width: 12000, Depth: 3, CV: 0.4, Payload: "1 GB"},
		{Width: 12000, Depth: 2},
		{Width: 6, Depth: 3, CV: 0.4, Payload: "1 GB"},
	}
	for k, tmpl := range tmpls {
		spec := &Spec{Kind: "corpus", Machine: "perlmutter-numa", Count: 5, Seed: uint64(k), Template: &tmpl}
		if _, err := RunStreamCached(context.Background(), spec, plans, nil); err != nil {
			t.Fatal(err)
		}
	}
	cached := 0
	for _, tmpl := range tmpls {
		for _, fam := range wfgen.Families() {
			s := tmpl
			s.Family = fam
			shape, err := s.Shape()
			if err != nil {
				t.Fatal(err)
			}
			v, ok := plans.Get(plancache.ShapeKey(&s, m.Name))
			if !ok {
				if shape.Tasks <= maxCachedShapeTasks {
					t.Errorf("%s w%d d%d: %d-task shape was not cached", fam, s.Width, s.Depth, shape.Tasks)
				}
				continue
			}
			cached++
			if n := len(v.(*corpusShape).topo.IDs); n > maxCachedShapeTasks {
				t.Errorf("%s w%d d%d: cached a %d-task shape, bound is %d", fam, s.Width, s.Depth, n, maxCachedShapeTasks)
			}
		}
	}
	if cached == 0 {
		t.Fatal("no shape was cached")
	}
}

// Allocation floor of a warm-shape lane scenario: draw, bound, bind and
// simulate reuse the worker's scratch and the shared trial pool.
const laneScenarioMaxAllocs = 8

// TestCorpusLaneAllocs pins the lane's per-scenario allocations on the
// explore workload's scenario (payload-staged, so the event loop runs)
// against the reference path's, which builds a named workflow, a model and
// a plan per scenario.
func TestCorpusLaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch, so allocation counts are meaningless")
	}
	m := machine.PerlmutterNUMA()
	for _, fam := range wfgen.Families() {
		s := wfgen.Spec{Family: fam, Width: 6, Depth: 3, CV: 0.4, Payload: "1 GB"}
		var f laneFamily
		sc := new(laneScratch)
		run := func() {
			s.Seed++
			if _, lane, err := f.scenario(&s, m, nil, 0, sc); err != nil || !lane {
				t.Fatalf("%s: lane=%v err=%v", fam, lane, err)
			}
		}
		run() // compile the shape and size the scratch
		lane := testing.AllocsPerRun(100, run)
		ref := testing.AllocsPerRun(20, func() {
			s.Seed++
			if _, err := referenceScenario(&s, m, 0); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: lane %.0f allocs, reference %.0f", fam, lane, ref)
		if lane > laneScenarioMaxAllocs {
			t.Errorf("%s: lane scenario allocates %.0f times, want at most %d", fam, lane, laneScenarioMaxAllocs)
		}
	}
}
