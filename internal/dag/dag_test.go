package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// fanIn builds sources all feeding one sink, the LCLS skeleton shape.
func fanIn(t *testing.T, sink string, sources ...string) *Graph {
	t.Helper()
	g := New()
	for _, s := range sources {
		if err := g.AddEdge(s, sink); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func lclsSkeleton(t *testing.T) *Graph {
	t.Helper()
	return fanIn(t, "F", "A", "B", "C", "D", "E")
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New()
	if err := g.AddNode("A"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("A"); err != nil {
		t.Fatal("re-adding a node must be a no-op")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if err := g.AddEdge("A", "B"); err != nil {
		t.Fatal(err)
	}
	if !g.Has("B") {
		t.Error("AddEdge should create missing vertices")
	}
	if err := g.AddEdge("A", "A"); err == nil {
		t.Error("self edge should fail")
	}
	if err := g.AddNode(""); err == nil {
		t.Error("empty id should fail")
	}
	if got := g.Succs("A"); !reflect.DeepEqual(got, []string{"B"}) {
		t.Errorf("Succs(A) = %v", got)
	}
	if got := g.Preds("B"); !reflect.DeepEqual(got, []string{"A"}) {
		t.Errorf("Preds(B) = %v", got)
	}
}

func TestTopoSortLinear(t *testing.T) {
	g, err := Chain("a", "b", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topo, []string{"a", "b", "c", "d"}) {
		t.Errorf("topo = %v", topo)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.TopoSort(); err == nil {
		t.Error("cycle should be detected")
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate = %v, want cycle error", err)
	}
}

func TestLevelsLCLS(t *testing.T) {
	g := lclsSkeleton(t)
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(levels))
	}
	if !reflect.DeepEqual(levels[0], []string{"A", "B", "C", "D", "E"}) {
		t.Errorf("level 0 = %v", levels[0])
	}
	if !reflect.DeepEqual(levels[1], []string{"F"}) {
		t.Errorf("level 1 = %v", levels[1])
	}
	w, err := g.Width()
	if err != nil {
		t.Fatal(err)
	}
	if w != 5 {
		t.Errorf("width = %d, want 5 (LCLS parallel tasks)", w)
	}
	cpl, err := g.CriticalPathLength()
	if err != nil {
		t.Fatal(err)
	}
	if cpl != 2 {
		t.Errorf("critical path length = %d, want 2 (paper Fig 4)", cpl)
	}
}

func TestLevelsDiamond(t *testing.T) {
	g := New()
	for _, e := range [][2]string{{"s", "l"}, {"s", "r"}, {"l", "t"}, {"r", "t"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"s"}, {"l", "r"}, {"t"}}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("levels = %v, want %v", levels, want)
	}
}

// Unbalanced diamond: the long branch pushes the join deeper than the short
// branch alone would.
func TestLevelsLongestDistance(t *testing.T) {
	g := New()
	for _, e := range [][2]string{{"s", "a"}, {"a", "b"}, {"s", "t"}, {"b", "t"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 4 {
		t.Fatalf("levels = %v, want 4 levels", levels)
	}
	if !reflect.DeepEqual(levels[3], []string{"t"}) {
		t.Errorf("t should be at level 3, levels = %v", levels)
	}
}

func TestCriticalPathWeighted(t *testing.T) {
	g := lclsSkeleton(t)
	// Task C is the slow analysis; merge F is quick.
	w := map[string]float64{"A": 10, "B": 12, "C": 30, "D": 8, "E": 5, "F": 2}
	path, total, err := g.CriticalPath(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []string{"C", "F"}) {
		t.Errorf("critical path = %v, want [C F]", path)
	}
	if total != 32 {
		t.Errorf("critical path cost = %v, want 32", total)
	}
}

func TestCriticalPathEmptyAndSingle(t *testing.T) {
	g := New()
	path, total, err := g.CriticalPath(nil)
	if err != nil || len(path) != 0 || total != 0 {
		t.Errorf("empty graph: path=%v total=%v err=%v", path, total, err)
	}
	if err := g.AddNode("only"); err != nil {
		t.Fatal(err)
	}
	path, total, err = g.CriticalPath(map[string]float64{"only": 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []string{"only"}) || total != 7 {
		t.Errorf("single: path=%v total=%v", path, total)
	}
}

// BGW invariant (paper Fig 7d): the critical path ordering is the same at 64
// and 1024 nodes even though the weights shrink.
func TestCriticalPathScaleInvariance(t *testing.T) {
	g, err := Chain("epsilon", "sigma")
	if err != nil {
		t.Fatal(err)
	}
	p64, t64, err := g.CriticalPath(map[string]float64{"epsilon": 490, "sigma": 1289})
	if err != nil {
		t.Fatal(err)
	}
	p1024, t1024, err := g.CriticalPath(map[string]float64{"epsilon": 28, "sigma": 79})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p64, p1024) {
		t.Errorf("critical path changed with scale: %v vs %v", p64, p1024)
	}
	if t64 <= t1024 {
		t.Errorf("64-node critical path (%v) should exceed 1024-node (%v)", t64, t1024)
	}
}

func TestASCII(t *testing.T) {
	g := lclsSkeleton(t)
	s, err := g.ASCII()
	if err != nil {
		t.Fatal(err)
	}
	want := "level 0: A B C D E\nlevel 1: F\n"
	if s != want {
		t.Errorf("ASCII = %q, want %q", s, want)
	}
}

func TestChainSingleNode(t *testing.T) {
	g, err := Chain("solo")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("Chain single: len = %d", g.Len())
	}
}

// Property: for random DAGs built with edges that always go from a lower to
// a higher index, TopoSort succeeds, respects every edge, and Levels is
// consistent with the order.
func TestQuickRandomDAG(t *testing.T) {
	f := func(seed int64, nNodes uint8, nEdges uint8) bool {
		n := int(nNodes%20) + 2
		rng := rand.New(rand.NewSource(seed))
		g := New()
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("n%02d", i)
			if err := g.AddNode(ids[i]); err != nil {
				return false
			}
		}
		for e := 0; e < int(nEdges%40); e++ {
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-i-1)
			if err := g.AddEdge(ids[i], ids[j]); err != nil {
				return false
			}
		}
		topo, err := g.TopoSort()
		if err != nil || len(topo) != n {
			return false
		}
		pos := make(map[string]int, n)
		for i, id := range topo {
			pos[id] = i
		}
		for _, from := range g.Nodes() {
			for _, to := range g.Succs(from) {
				if pos[from] >= pos[to] {
					return false
				}
			}
		}
		levels, err := g.Levels()
		if err != nil {
			return false
		}
		lvl := make(map[string]int)
		total := 0
		for i, l := range levels {
			total += len(l)
			for _, id := range l {
				lvl[id] = i
			}
		}
		if total != n {
			return false
		}
		for _, from := range g.Nodes() {
			for _, to := range g.Succs(from) {
				if lvl[to] <= lvl[from] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: critical path total always equals the sum of its vertex weights
// and is at least the weight of any single vertex.
func TestQuickCriticalPathConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		g := New()
		w := make(map[string]float64, n)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("t%02d", i)
			if err := g.AddNode(ids[i]); err != nil {
				return false
			}
			w[ids[i]] = float64(rng.Intn(100) + 1)
		}
		for e := 0; e < n; e++ {
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-i-1)
			if err := g.AddEdge(ids[i], ids[j]); err != nil {
				return false
			}
		}
		path, total, err := g.CriticalPath(w)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, id := range path {
			sum += w[id]
		}
		if sum != total {
			return false
		}
		for _, id := range ids {
			if w[id] > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
