package dag

import (
	"fmt"
	"sort"
	"strings"
)

// This file preserves the original map-of-maps graph as an executable
// reference for the differential tests in dag_diff_test.go: every vertex
// owns a successor and a predecessor set, and every query re-derives its
// answer from those maps. The production Graph in dag.go must reproduce
// every exported output and error string of it on arbitrary graphs.
//
// Two choices the original left to map iteration order are pinned here to
// insertion order, the order the production graph uses: the vertex a cycle
// error names, and the predecessor CriticalPath keeps among equal-distance
// ties.

// refGraph is the reference directed graph of named task vertices.
type refGraph struct {
	nodes map[string]bool
	// succ and pred store adjacency in both directions for O(degree)
	// traversal either way.
	succ map[string]map[string]bool
	pred map[string]map[string]bool
	// order preserves insertion order for deterministic iteration.
	order []string
}

// newRefGraph returns an empty reference graph.
func newRefGraph() *refGraph {
	return &refGraph{
		nodes: make(map[string]bool),
		succ:  make(map[string]map[string]bool),
		pred:  make(map[string]map[string]bool),
	}
}

// AddNode inserts a vertex. Adding an existing vertex is a no-op so builders
// can be idempotent.
func (g *refGraph) AddNode(id string) error {
	if id == "" {
		return fmt.Errorf("dag: empty node id")
	}
	if g.nodes[id] {
		return nil
	}
	g.nodes[id] = true
	g.succ[id] = make(map[string]bool)
	g.pred[id] = make(map[string]bool)
	g.order = append(g.order, id)
	return nil
}

// AddEdge inserts the dependency from -> to ("to" cannot start until "from"
// finishes), creating missing vertices. Self-edges are rejected immediately;
// cycles are detected by Validate / TopoSort.
func (g *refGraph) AddEdge(from, to string) error {
	if from == to {
		return fmt.Errorf("dag: self edge on %q", from)
	}
	if err := g.AddNode(from); err != nil {
		return err
	}
	if err := g.AddNode(to); err != nil {
		return err
	}
	g.succ[from][to] = true
	g.pred[to][from] = true
	return nil
}

// Len returns the number of vertices.
func (g *refGraph) Len() int { return len(g.nodes) }

// Has reports whether the vertex exists.
func (g *refGraph) Has(id string) bool { return g.nodes[id] }

// Nodes returns all vertex ids in insertion order.
func (g *refGraph) Nodes() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// Succs returns the successors of id, sorted.
func (g *refGraph) Succs(id string) []string { return refSortedKeys(g.succ[id]) }

// Preds returns the predecessors of id, sorted.
func (g *refGraph) Preds(id string) []string { return refSortedKeys(g.pred[id]) }

func refSortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TopoSort returns a topological order (Kahn's algorithm, tie-broken by
// insertion order for determinism) or an error naming a vertex on a cycle.
func (g *refGraph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	for id := range g.nodes {
		indeg[id] = len(g.pred[id])
	}
	// Precompute each node's successors sorted by insertion order: visiting
	// them that way keeps the sort stable, and doing it once up front makes
	// the walk O(V + E log E) instead of rescanning every vertex per pop
	// (which is quadratic on long chains).
	idx := make(map[string]int, len(g.order))
	for i, id := range g.order {
		idx[id] = i
	}
	succs := make(map[string][]string, len(g.nodes))
	for id, set := range g.succ {
		if len(set) == 0 {
			continue
		}
		out := make([]string, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return idx[out[i]] < idx[out[j]] })
		succs[id] = out
	}
	var ready []string
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	out := make([]string, 0, len(g.nodes))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, s := range succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(out) != len(g.nodes) {
		for _, id := range g.order {
			if indeg[id] > 0 {
				return nil, fmt.Errorf("dag: cycle involving %q", id)
			}
		}
	}
	return out, nil
}

// Validate returns an error if the graph contains a cycle.
func (g *refGraph) Validate() error {
	_, err := g.TopoSort()
	return err
}

// Levels partitions vertices by longest distance from a source: level 0 is
// the sources, level k holds vertices whose longest predecessor chain has k
// edges. This is the paper's level decomposition (LCLS: level 0 = A..E,
// level 1 = F).
func (g *refGraph) Levels() ([][]string, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	level := make(map[string]int, len(topo))
	maxLevel := 0
	for _, id := range topo {
		l := 0
		for p := range g.pred[id] {
			if level[p]+1 > l {
				l = level[p] + 1
			}
		}
		level[id] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	out := make([][]string, maxLevel+1)
	for _, id := range g.order {
		l := level[id]
		out[l] = append(out[l], id)
	}
	return out, nil
}

// Width returns the size of the widest level — the maximum number of tasks
// that the skeleton allows to run concurrently, i.e. the paper's "number of
// parallel tasks" for an unconstrained system.
func (g *refGraph) Width() (int, error) {
	levels, err := g.Levels()
	if err != nil {
		return 0, err
	}
	w := 0
	for _, l := range levels {
		if len(l) > w {
			w = len(l)
		}
	}
	return w, nil
}

// CriticalPath returns the path with the maximum total weight and that
// total, where weight maps vertex id to its cost (e.g. seconds). Vertices
// missing from weight count as zero. The returned path lists vertices in
// execution order.
func (g *refGraph) CriticalPath(weight map[string]float64) ([]string, float64, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, 0, err
	}
	if len(topo) == 0 {
		return nil, 0, nil
	}
	dist := make(map[string]float64, len(topo))
	prev := make(map[string]string, len(topo))
	for _, id := range topo {
		best := 0.0
		bestPrev := ""
		for _, p := range g.order {
			if !g.pred[id][p] {
				continue
			}
			if dist[p] > best || (dist[p] == best && bestPrev == "") {
				best = dist[p]
				bestPrev = p
			}
		}
		dist[id] = best + weight[id]
		prev[id] = bestPrev
	}
	endID, endDist := "", -1.0
	for _, id := range topo {
		if dist[id] > endDist {
			endID, endDist = id, dist[id]
		}
	}
	var path []string
	for id := endID; id != ""; id = prev[id] {
		path = append(path, id)
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, endDist, nil
}

// CriticalPathLength returns the number of vertices on the longest chain
// (unit weights) — the paper's "critical path length" (LCLS: 2).
func (g *refGraph) CriticalPathLength() (int, error) {
	levels, err := g.Levels()
	if err != nil {
		return 0, err
	}
	return len(levels), nil
}

// ASCII renders the level structure as indented text, one level per line:
//
//	level 0: A B C D E
//	level 1: F
func (g *refGraph) ASCII() (string, error) {
	levels, err := g.Levels()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, l := range levels {
		fmt.Fprintf(&b, "level %d: %s\n", i, strings.Join(l, " "))
	}
	return b.String(), nil
}
