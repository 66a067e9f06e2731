package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// diffOp is one construction step replayed against both graphs.
type diffOp struct {
	edge     bool
	from, to string
}

// genOps derives a random construction sequence from a seed: isolated
// vertices, duplicate edges, re-added vertices, back edges that close
// cycles, self edges and empty ids, in random interleavings. The vertex
// names are drawn so that insertion order and id order disagree.
func genOps(seed int64) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(14)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%02d", rng.Intn(60))
	}
	cyclic := rng.Intn(3) == 0
	var ops []diffOp
	for k, steps := 0, rng.Intn(3*n+1); k < steps; k++ {
		switch r := rng.Intn(10); {
		case r < 2:
			ops = append(ops, diffOp{from: ids[rng.Intn(n)]})
		case r == 2 && rng.Intn(8) == 0:
			ops = append(ops, diffOp{edge: rng.Intn(2) == 0, from: "", to: ids[rng.Intn(n)]})
		case r == 3 && len(ops) > 0:
			ops = append(ops, ops[rng.Intn(len(ops))]) // duplicate a step
		default:
			i, j := rng.Intn(n), rng.Intn(n)
			if !cyclic && i > j {
				i, j = j, i
			}
			ops = append(ops, diffOp{edge: true, from: ids[i], to: ids[j]})
		}
	}
	return ops
}

// genWeights assigns each id a small integer weight (so equal-distance
// ties are common), occasionally zero, negative or missing.
func genWeights(rng *rand.Rand, ids []string) map[string]float64 {
	w := make(map[string]float64, len(ids))
	for _, id := range ids {
		switch rng.Intn(8) {
		case 0: // missing: counts as zero
		case 1:
			w[id] = -float64(rng.Intn(3))
		default:
			w[id] = float64(rng.Intn(3))
		}
	}
	return w
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestGraphMatchesReference replays random construction sequences against
// the production graph and the map-of-maps reference and compares every
// exported output and error string, including after further mutation of an
// already-queried graph.
func TestGraphMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		ops := genOps(seed)
		g, ref := New(), newRefGraph()
		// Query halfway through too, so a frozen graph must notice later
		// mutations.
		for k, op := range ops {
			var err, rerr error
			if op.edge {
				err, rerr = g.AddEdge(op.from, op.to), ref.AddEdge(op.from, op.to)
			} else {
				err, rerr = g.AddNode(op.from), ref.AddNode(op.from)
			}
			if errString(err) != errString(rerr) {
				t.Logf("seed %d op %d %+v: err %v, reference %v", seed, k, op, err, rerr)
				return false
			}
			if k == len(ops)/2 && !sameGraph(t, seed, g, ref) {
				return false
			}
		}
		return sameGraph(t, seed, g, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// sameGraph compares every query of g against the reference.
func sameGraph(t *testing.T, seed int64, g *Graph, ref *refGraph) bool {
	t.Helper()
	fail := func(what string, got, want any) bool {
		t.Logf("seed %d: %s = %#v, reference %#v", seed, what, got, want)
		return false
	}
	if g.Len() != ref.Len() {
		return fail("Len", g.Len(), ref.Len())
	}
	nodes := ref.Nodes()
	if got := g.Nodes(); !reflect.DeepEqual(got, nodes) {
		return fail("Nodes", got, nodes)
	}
	for _, id := range append(nodes, "absent") {
		if g.Has(id) != ref.Has(id) {
			return fail("Has "+id, g.Has(id), ref.Has(id))
		}
		if got, want := g.Succs(id), ref.Succs(id); !reflect.DeepEqual(got, want) {
			return fail("Succs "+id, got, want)
		}
		if got, want := g.Preds(id), ref.Preds(id); !reflect.DeepEqual(got, want) {
			return fail("Preds "+id, got, want)
		}
	}
	topo, err := g.TopoSort()
	rtopo, rerr := ref.TopoSort()
	if !reflect.DeepEqual(topo, rtopo) || errString(err) != errString(rerr) {
		return fail("TopoSort", []any{topo, errString(err)}, []any{rtopo, errString(rerr)})
	}
	if got, want := errString(g.Validate()), errString(ref.Validate()); got != want {
		return fail("Validate", got, want)
	}
	levels, err := g.Levels()
	rlevels, rerr := ref.Levels()
	if !reflect.DeepEqual(levels, rlevels) || errString(err) != errString(rerr) {
		return fail("Levels", []any{levels, errString(err)}, []any{rlevels, errString(rerr)})
	}
	width, err := g.Width()
	rwidth, rerr := ref.Width()
	if width != rwidth || errString(err) != errString(rerr) {
		return fail("Width", []any{width, errString(err)}, []any{rwidth, errString(rerr)})
	}
	cpl, err := g.CriticalPathLength()
	rcpl, rerr := ref.CriticalPathLength()
	if cpl != rcpl || errString(err) != errString(rerr) {
		return fail("CriticalPathLength", []any{cpl, errString(err)}, []any{rcpl, errString(rerr)})
	}
	w := genWeights(rand.New(rand.NewSource(seed)), nodes)
	path, total, err := g.CriticalPath(w)
	rpath, rtotal, rerr := ref.CriticalPath(w)
	if !reflect.DeepEqual(path, rpath) || total != rtotal || errString(err) != errString(rerr) {
		return fail("CriticalPath", []any{path, total, errString(err)}, []any{rpath, rtotal, errString(rerr)})
	}
	ascii, err := g.ASCII()
	rascii, rerr := ref.ASCII()
	if ascii != rascii || errString(err) != errString(rerr) {
		return fail("ASCII", ascii, rascii)
	}
	// The index view agrees with the id view: distinct successors in
	// insertion order.
	for i, id := range nodes {
		if j, ok := g.Index(id); !ok || j != i {
			return fail("Index "+id, j, i)
		}
		succ := g.SuccIndices(i)
		if len(succ) != len(ref.Succs(id)) {
			return fail("SuccIndices "+id, succ, ref.Succs(id))
		}
		for k, s := range succ {
			if !ref.succ[id][nodes[s]] || (k > 0 && succ[k-1] >= s) {
				return fail("SuccIndices "+id, succ, ref.Succs(id))
			}
		}
	}
	if _, ok := g.Index("absent"); ok {
		return fail("Index absent", true, false)
	}
	return true
}

// TestCriticalPathDeterministic pins the tie-break: equal-weight branches
// used to be chosen by map iteration order, so the same graph returned
// different paths from call to call (and the Gantt critical-path marking
// moved with it). Ties now go to the earliest-inserted vertex.
func TestCriticalPathDeterministic(t *testing.T) {
	g := lclsSkeleton(t)
	w := map[string]float64{"A": 1, "B": 1, "C": 1, "D": 1, "E": 1, "F": 1}
	for i := 0; i < 200; i++ {
		path, total, err := g.CriticalPath(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(path, []string{"A", "F"}) || total != 2 {
			t.Fatalf("call %d: CriticalPath = %v (%v), want [A F] (2)", i, path, total)
		}
	}
}

// TestConcurrentReads queries one built graph from 8 goroutines at once.
// The derived structure is built on first query, so this is the test that
// keeps that build race-free under -race.
func TestConcurrentReads(t *testing.T) {
	build := func() *Graph {
		g := New()
		for i := 0; i < 64; i++ {
			if err := g.AddEdge(fmt.Sprintf("n%02d", i/2), fmt.Sprintf("n%02d", i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	wantTopo, err := build().TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	wantLevels, err := build().Levels()
	if err != nil {
		t.Fatal(err)
	}
	wantSuccs := build().Succs("n03")

	g := build() // never queried before the goroutines start
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				topo, err := g.TopoSort()
				if err != nil || !reflect.DeepEqual(topo, wantTopo) {
					t.Errorf("TopoSort = %v, %v", topo, err)
					return
				}
				if succs := g.Succs("n03"); !reflect.DeepEqual(succs, wantSuccs) {
					t.Errorf("Succs = %v, want %v", succs, wantSuccs)
					return
				}
				levels, err := g.Levels()
				if err != nil || !reflect.DeepEqual(levels, wantLevels) {
					t.Errorf("Levels = %v, %v", levels, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
