// Package dag implements directed acyclic task graphs for workflow
// skeletons: construction, cycle detection, topological ordering, level
// decomposition (the paper's "number of parallel tasks" is the widest
// level), weighted critical paths, and ASCII export.
package dag

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Graph is a directed acyclic graph of named task vertices. The zero value
// is not usable; create graphs with New.
//
// Vertices are numbered by insertion order. Construction only appends to an
// edge list; the first query after a mutation derives the adjacency in
// compressed sparse rows (deduplicated, each row ascending by insertion
// index) together with one Kahn topological order and the level of every
// vertex, and every query reuses that until the next mutation. Concurrent
// queries are safe; mutation concurrent with anything else is not.
type Graph struct {
	index map[string]int32 // vertex id -> insertion index
	ids   []string         // vertex ids in insertion order
	edges []edge           // in insertion order, duplicates included

	// frozen is the derived structure, nil until the first query after a
	// mutation. Concurrent first queries may each build it; they build
	// identical values and either store wins.
	frozen atomic.Pointer[frozen]
}

// edge is one dependency between insertion indices.
type edge struct{ from, to int32 }

// frozen is everything the queries derive from the vertices and edges.
type frozen struct {
	// The successors of vertex v are succ[succOff[v]:succOff[v+1]], its
	// predecessors pred[predOff[v]:predOff[v+1]]; both ascending.
	succOff, succ []int32
	predOff, pred []int32
	// topo is Kahn's order, sources and ties taken in insertion order.
	topo []int32
	// err names a vertex on a cycle; the fields below are valid only when
	// it is nil.
	err error
	// level is each vertex's longest distance (in edges) from a source;
	// levels counts the levels and width is the size of the widest one.
	level  []int32
	levels int
	width  int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[string]int32)}
}

// AddNode inserts a vertex. Adding an existing vertex is a no-op so builders
// can be idempotent.
func (g *Graph) AddNode(id string) error {
	_, err := g.add(id)
	return err
}

// add returns id's insertion index, inserting the vertex if it is new.
func (g *Graph) add(id string) (int32, error) {
	if id == "" {
		return 0, fmt.Errorf("dag: empty node id")
	}
	if i, ok := g.index[id]; ok {
		return i, nil
	}
	i := int32(len(g.ids))
	g.index[id] = i
	g.ids = append(g.ids, id)
	g.frozen.Store(nil)
	return i, nil
}

// AddEdge inserts the dependency from -> to ("to" cannot start until "from"
// finishes), creating missing vertices. Self-edges are rejected immediately;
// cycles are detected by Validate / TopoSort.
func (g *Graph) AddEdge(from, to string) error {
	if from == to {
		return fmt.Errorf("dag: self edge on %q", from)
	}
	f, err := g.add(from)
	if err != nil {
		return err
	}
	t, err := g.add(to)
	if err != nil {
		return err
	}
	g.edges = append(g.edges, edge{from: f, to: t})
	g.frozen.Store(nil)
	return nil
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.ids) }

// Has reports whether the vertex exists.
func (g *Graph) Has(id string) bool {
	_, ok := g.index[id]
	return ok
}

// Nodes returns all vertex ids in insertion order.
func (g *Graph) Nodes() []string {
	out := make([]string, len(g.ids))
	copy(out, g.ids)
	return out
}

// Index returns id's insertion index: its position in Nodes.
func (g *Graph) Index(id string) (int, bool) {
	i, ok := g.index[id]
	return int(i), ok
}

// SuccIndices returns the distinct successors of the vertex at insertion
// index i as insertion indices, ascending. The slice is shared with the
// graph and must not be modified.
func (g *Graph) SuccIndices(i int) []int32 {
	f := g.csr()
	return f.succ[f.succOff[i]:f.succOff[i+1]]
}

// Succs returns the successors of id, sorted.
func (g *Graph) Succs(id string) []string {
	f := g.csr()
	return g.sortedIDs(id, f.succOff, f.succ)
}

// Preds returns the predecessors of id, sorted.
func (g *Graph) Preds(id string) []string {
	f := g.csr()
	return g.sortedIDs(id, f.predOff, f.pred)
}

// sortedIDs returns the ids in id's adjacency row, sorted by id.
func (g *Graph) sortedIDs(id string, off, adj []int32) []string {
	i, ok := g.index[id]
	if !ok {
		return []string{}
	}
	row := adj[off[i]:off[i+1]]
	out := make([]string, len(row))
	for k, v := range row {
		out[k] = g.ids[v]
	}
	sort.Strings(out)
	return out
}

// csr returns the derived structure, building it on the first query after a
// mutation.
func (g *Graph) csr() *frozen {
	if f := g.frozen.Load(); f != nil {
		return f
	}
	f := g.freeze()
	g.frozen.Store(f)
	return f
}

// freeze builds the deduplicated adjacency rows by two counting-sort passes
// over the edge list, then runs Kahn's algorithm and the level pass once.
func (g *Graph) freeze() *frozen {
	n, m := len(g.ids), len(g.edges)
	slab := make([]int32, 2*(n+1)+2*m+2*n)
	f := &frozen{
		succOff: slab[:n+1],
		predOff: slab[n+1 : 2*(n+1)],
		succ:    slab[2*(n+1) : 2*(n+1)+m],
		pred:    slab[2*(n+1)+m : 2*(n+1)+2*m],
		topo:    slab[2*(n+1)+2*m : 2*(n+1)+2*m : 2*(n+1)+2*m+n],
		level:   slab[2*(n+1)+2*m+n:],
	}
	for _, e := range g.edges {
		f.succOff[e.from+1]++
		f.predOff[e.to+1]++
	}
	for v := 0; v < n; v++ {
		f.succOff[v+1] += f.succOff[v]
		f.predOff[v+1] += f.predOff[v]
	}
	// level doubles as the fill cursor until the level pass. Bucket the
	// edges by target (predecessors in edge order), walk the targets in
	// ascending order to fill each successor row ascending, then walk the
	// sources in ascending order to refill each predecessor row ascending.
	// Duplicate edges end up adjacent in both.
	cur := f.level
	copy(cur, f.predOff[:n])
	for _, e := range g.edges {
		f.pred[cur[e.to]] = e.from
		cur[e.to]++
	}
	copy(cur, f.succOff[:n])
	for to := int32(0); to < int32(n); to++ {
		for _, from := range f.pred[f.predOff[to]:f.predOff[to+1]] {
			f.succ[cur[from]] = to
			cur[from]++
		}
	}
	copy(cur, f.predOff[:n])
	for from := int32(0); from < int32(n); from++ {
		for _, to := range f.succ[f.succOff[from]:f.succOff[from+1]] {
			f.pred[cur[to]] = from
			cur[to]++
		}
	}
	f.succ = dedupRows(f.succOff, f.succ)
	f.pred = dedupRows(f.predOff, f.pred)

	// Kahn's algorithm with level as the in-degree table; topo is its own
	// queue.
	indeg := f.level
	for v := 0; v < n; v++ {
		indeg[v] = f.predOff[v+1] - f.predOff[v]
		if indeg[v] == 0 {
			f.topo = append(f.topo, int32(v))
		}
	}
	for head := 0; head < len(f.topo); head++ {
		v := f.topo[head]
		for _, s := range f.succ[f.succOff[v]:f.succOff[v+1]] {
			if indeg[s]--; indeg[s] == 0 {
				f.topo = append(f.topo, s)
			}
		}
	}
	if len(f.topo) != n {
		for v, d := range indeg {
			if d > 0 {
				f.err = fmt.Errorf("dag: cycle involving %q", g.ids[v])
				break
			}
		}
		return f
	}

	// Every in-degree is zero again, so level starts cleared.
	maxLevel := int32(0)
	for _, v := range f.topo {
		l := int32(0)
		for _, p := range f.pred[f.predOff[v]:f.predOff[v+1]] {
			if f.level[p]+1 > l {
				l = f.level[p] + 1
			}
		}
		f.level[v] = l
		maxLevel = max(maxLevel, l)
	}
	f.levels = int(maxLevel) + 1
	counts := make([]int, f.levels)
	for _, l := range f.level {
		counts[l]++
		f.width = max(f.width, counts[l])
	}
	return f
}

// dedupRows drops adjacent duplicates within each row of a sorted CSR
// adjacency, compacting adj in place and rewriting off to match.
func dedupRows(off, adj []int32) []int32 {
	w := int32(0)
	for v := 0; v+1 < len(off); v++ {
		lo, hi := off[v], off[v+1]
		off[v] = w
		for k := lo; k < hi; k++ {
			if k == lo || adj[k] != adj[k-1] {
				adj[w] = adj[k]
				w++
			}
		}
	}
	off[len(off)-1] = w
	return adj[:w]
}

// TopoSort returns a topological order (Kahn's algorithm, tie-broken by
// insertion order for determinism) or an error naming a vertex on a cycle.
func (g *Graph) TopoSort() ([]string, error) {
	f := g.csr()
	if f.err != nil {
		return nil, f.err
	}
	out := make([]string, len(f.topo))
	for k, v := range f.topo {
		out[k] = g.ids[v]
	}
	return out, nil
}

// Validate returns an error if the graph contains a cycle.
func (g *Graph) Validate() error { return g.csr().err }

// Levels partitions vertices by longest distance from a source: level 0 is
// the sources, level k holds vertices whose longest predecessor chain has k
// edges. This is the paper's level decomposition (LCLS: level 0 = A..E,
// level 1 = F).
func (g *Graph) Levels() ([][]string, error) {
	f := g.csr()
	if f.err != nil {
		return nil, f.err
	}
	out := make([][]string, f.levels)
	for v, l := range f.level {
		out[l] = append(out[l], g.ids[v])
	}
	return out, nil
}

// Width returns the size of the widest level — the maximum number of tasks
// that the skeleton allows to run concurrently, i.e. the paper's "number of
// parallel tasks" for an unconstrained system.
func (g *Graph) Width() (int, error) {
	f := g.csr()
	if f.err != nil {
		return 0, f.err
	}
	return f.width, nil
}

// CriticalPath returns the path with the maximum total weight and that
// total, where weight maps vertex id to its cost (e.g. seconds). Vertices
// missing from weight count as zero. The returned path lists vertices in
// execution order. Ties go to the earliest-inserted vertex, so equal-weight
// branches always yield the same path.
func (g *Graph) CriticalPath(weight map[string]float64) ([]string, float64, error) {
	f := g.csr()
	if f.err != nil {
		return nil, 0, f.err
	}
	n := len(g.ids)
	if n == 0 {
		return nil, 0, nil
	}
	dist := make([]float64, n)
	prev := make([]int32, n)
	for _, v := range f.topo {
		best := 0.0
		bestPrev := int32(-1)
		for _, p := range f.pred[f.predOff[v]:f.predOff[v+1]] {
			if dist[p] > best || (dist[p] == best && bestPrev < 0) {
				best = dist[p]
				bestPrev = p
			}
		}
		dist[v] = best + weight[g.ids[v]]
		prev[v] = bestPrev
	}
	end, endDist := int32(-1), -1.0
	for _, v := range f.topo {
		if dist[v] > endDist {
			end, endDist = v, dist[v]
		}
	}
	var path []string
	for v := end; v >= 0; v = prev[v] {
		path = append(path, g.ids[v])
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, endDist, nil
}

// CriticalPathLength returns the number of vertices on the longest chain
// (unit weights) — the paper's "critical path length" (LCLS: 2).
func (g *Graph) CriticalPathLength() (int, error) {
	f := g.csr()
	if f.err != nil {
		return 0, f.err
	}
	return f.levels, nil
}

// ASCII renders the level structure as indented text, one level per line:
//
//	level 0: A B C D E
//	level 1: F
func (g *Graph) ASCII() (string, error) {
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

// Chain builds a linear graph v1 -> v2 -> ... -> vn, a convenience for
// serialized workflows like GPTune's sample loop.
func Chain(ids ...string) (*Graph, error) {
	g := New()
	for i, id := range ids {
		if err := g.AddNode(id); err != nil {
			return nil, err
		}
		if i > 0 {
			if err := g.AddEdge(ids[i-1], id); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
