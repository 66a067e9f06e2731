// Package wfgen generates synthetic workflow scenarios for corpus-scale
// roofline studies, in the spirit of WfBench's parameterized benchmarks:
// seeded, bit-reproducible DAGs drawn from a small catalog of topology
// families (chains, fan-outs, diamonds, Montage/Epigenomics-like
// multi-stage shapes, and the bag-of-tasks, map-reduce and scatter-gather
// archetypes of the NERSC workflow white paper) with tunable width, depth,
// and per-task work distributions.
//
// Every family has a closed-form Shape — task count, maximum level width,
// and critical-path length in levels — which the property suite checks
// against the constructed DAG, so the generator is specified by invariants
// rather than by example.
//
// Determinism: all randomness comes from one splitmix64 stream seeded by
// Spec.Seed and consumed in a fixed construction order, so the same spec
// regenerates a byte-identical workflow on any platform at any GOMAXPROCS.
package wfgen

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

// MaxTasks caps how many tasks one spec may generate, so a hostile or
// fuzzed spec cannot request a multi-gigabyte workflow.
const MaxTasks = 1_000_000

// Spec parameterizes one generated workflow. The unit-string fields are
// per-task (or per-edge, for Payload) means; with a positive CV each task
// draws a mean-preserving lognormal factor around them.
type Spec struct {
	// Family selects the topology: "chain", "fanout", "diamond", "montage",
	// "epigenomics", "bag", "mapreduce", or "scatter".
	Family string `json:"family"`
	// Seed drives the generator's splitmix64 stream.
	Seed uint64 `json:"seed,omitempty"`
	// Width is the parallel width of the family (ignored by chain and
	// scatter). Default 4.
	Width int `json:"width,omitempty"`
	// Depth is the stage count for chain, diamond, epigenomics, mapreduce,
	// and scatter (ignored by fanout, montage, and bag). Default 3.
	Depth int `json:"depth,omitempty"`
	// Partition names the machine partition the workflow targets.
	// Default "cpu".
	Partition string `json:"partition,omitempty"`
	// NodesPerTask is each task's node requirement. Default 1.
	NodesPerTask int `json:"nodes_per_task,omitempty"`

	// Flops, Mem, Net are mean per-node work quantities (e.g. "200 GFLOP",
	// "50 GB"); FS is the mean per-task file-system volume. Empty strings
	// take the documented defaults; "0" disables a component.
	Flops string `json:"flops,omitempty"`
	Mem   string `json:"mem,omitempty"`
	Net   string `json:"net,omitempty"`
	FS    string `json:"fs,omitempty"`
	// Payload is the mean per-edge data-dependency volume; each edge adds
	// its drawn payload to the producer's and the consumer's FSBytes (the
	// producer writes it to the shared file system, the consumer reads it
	// back). Empty or "0" disables payloads.
	Payload string `json:"payload,omitempty"`
	// CV is the coefficient of variation of the lognormal work distribution
	// (the sigma of the underlying normal); 0 generates constant work.
	CV float64 `json:"cv,omitempty"`
}

// Shape is the closed-form structure of a generated DAG.
type Shape struct {
	// Tasks is the total task count.
	Tasks int
	// Width is the size of the widest level.
	Width int
	// Levels is the critical-path length counted in levels.
	Levels int
}

// Families lists the topology families a corpus cycles through by default,
// in generation order. The archetype families bag, mapreduce and scatter
// are accepted by name only.
func Families() []string {
	return []string{"chain", "fanout", "diamond", "montage", "epigenomics"}
}

// allFamilies is every family a spec may name.
func allFamilies() []string { return append(Families(), "bag", "mapreduce", "scatter") }

// Normalized returns a copy of the spec with every default applied — the
// effective spec that Validate, Shape, and Generate all operate on. It is
// exported so content-addressed caches can key on the effective value: two
// written specs that differ only by spelling out a default describe the
// same scenario and should share one cache entry.
func (s *Spec) Normalized() Spec {
	return s.normalized()
}

// normalized returns a copy with defaults applied; Validate, Shape, and
// Generate all see the same effective spec.
func (s *Spec) normalized() Spec {
	n := *s
	if n.Width == 0 {
		n.Width = 4
	}
	if n.Depth == 0 {
		n.Depth = 3
	}
	if n.Partition == "" {
		n.Partition = "cpu"
	}
	if n.NodesPerTask == 0 {
		n.NodesPerTask = 1
	}
	if n.Flops == "" {
		n.Flops = "200 GFLOP"
	}
	if n.Mem == "" {
		n.Mem = "50 GB"
	}
	if n.Net == "" {
		n.Net = "1 GB"
	}
	if n.FS == "" {
		n.FS = "10 GB"
	}
	return n
}

// Validate checks the spec against the family's structural requirements
// (ValidateShape) and the work-quantity grammar.
func (s *Spec) Validate() error {
	n := s.normalized()
	if err := n.validateShape(); err != nil {
		return err
	}
	return n.validateQuantities()
}

// ValidateShape checks everything Validate does except the work quantities
// (flops, mem, net, fs, payload). Specs that differ only in family, width or
// depth, such as a corpus template's families, share their quantities, so
// one full Validate and a ValidateShape for each of the others check them
// all.
func (s *Spec) ValidateShape() error {
	n := s.normalized()
	return n.validateShape()
}

// validateShape is ValidateShape on an already-normalized spec.
func (n *Spec) validateShape() error {
	// Bound width and depth individually BEFORE the closed-form shape
	// arithmetic: products like w*d can wrap around int64 for absurd inputs,
	// sneaking a tiny (or negative) task count past the cap below while
	// Generate would still loop over the raw huge dimension.
	if n.Width < 1 || n.Width > MaxTasks {
		return fmt.Errorf("wfgen: width must be in [1,%d], got %d", MaxTasks, n.Width)
	}
	if n.Depth < 1 || n.Depth > MaxTasks {
		return fmt.Errorf("wfgen: depth must be in [1,%d], got %d", MaxTasks, n.Depth)
	}
	if n.NodesPerTask < 1 {
		return fmt.Errorf("wfgen: nodes per task must be positive, got %d", n.NodesPerTask)
	}
	if n.CV < 0 || n.CV > 4 {
		return fmt.Errorf("wfgen: cv %v outside [0,4]", n.CV)
	}
	if n.Family == "montage" && n.Width < 2 {
		return fmt.Errorf("wfgen: montage needs width >= 2, got %d", n.Width)
	}
	shape, err := n.shape()
	if err != nil {
		return err
	}
	if shape.Tasks > MaxTasks {
		return fmt.Errorf("wfgen: spec generates %d tasks, cap is %d", shape.Tasks, MaxTasks)
	}
	return nil
}

// validateQuantities checks a normalized spec's work-quantity grammar.
func (n *Spec) validateQuantities() error {
	if _, err := units.ParseFlops(n.Flops); err != nil {
		return fmt.Errorf("wfgen: flops: %w", err)
	}
	for _, q := range []struct{ field, val string }{
		{"mem", n.Mem}, {"net", n.Net}, {"fs", n.FS},
	} {
		if _, err := units.ParseBytes(q.val); err != nil {
			return fmt.Errorf("wfgen: %s: %w", q.field, err)
		}
	}
	if n.Payload != "" {
		if _, err := units.ParseBytes(n.Payload); err != nil {
			return fmt.Errorf("wfgen: payload: %w", err)
		}
	}
	return nil
}

// Shape returns the closed-form structure the spec's family implies.
func (s *Spec) Shape() (Shape, error) {
	n := s.normalized()
	if err := s.Validate(); err != nil {
		return Shape{}, err
	}
	return n.shape()
}

// shape computes the family invariants on an already-normalized spec.
func (s *Spec) shape() (Shape, error) {
	w, d := s.Width, s.Depth
	switch s.Family {
	case "chain":
		return Shape{Tasks: d, Width: 1, Levels: d}, nil
	case "fanout":
		return Shape{Tasks: w + 2, Width: w, Levels: 3}, nil
	case "diamond":
		return Shape{Tasks: d * (w + 2), Width: w, Levels: 3 * d}, nil
	case "montage":
		return Shape{Tasks: 3*w + 4, Width: w, Levels: 8}, nil
	case "epigenomics":
		return Shape{Tasks: w*d + 4, Width: w, Levels: d + 4}, nil
	case "bag":
		return Shape{Tasks: w, Width: w, Levels: 1}, nil
	case "mapreduce":
		return Shape{Tasks: d * (w + 1), Width: w, Levels: 2 * d}, nil
	case "scatter":
		// Guard the shift: 2^d wraps for large d, and depth 19 already
		// exceeds MaxTasks.
		if d > 20 {
			return Shape{}, fmt.Errorf("wfgen: scatter depth %d generates 3*2^%d-2 tasks, cap is %d", d, d, MaxTasks)
		}
		return Shape{Tasks: 3<<d - 2, Width: 1 << d, Levels: 2*d + 1}, nil
	default:
		return Shape{}, fmt.Errorf("wfgen: unknown family %q (want %v)", s.Family, allFamilies())
	}
}

// Generate builds the workflow the spec describes: it compiles the spec's
// topology, draws the scenario's work on it and materializes the named
// tasks and edges in the builder's construction order.
func Generate(s *Spec) (*workflow.Workflow, error) {
	n := s.normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	v, err := n.volumes()
	if err != nil {
		return nil, err
	}
	t := compileTopology(&n)
	work := t.Draw(&v, n.Seed, nil)
	wf := workflow.New(fmt.Sprintf("gen-%s-w%d-d%d-s%d", n.Family, n.Width, n.Depth, n.Seed), n.Partition)
	tasks := make([]workflow.Task, len(t.IDs))
	for _, o := range t.ops {
		if o.from < 0 {
			tasks[o.to] = workflow.Task{ID: t.IDs[o.to], Nodes: n.NodesPerTask, Work: work[o.to]}
			if err := wf.AddTask(&tasks[o.to]); err != nil {
				return nil, err
			}
			continue
		}
		if err := wf.AddDep(t.IDs[o.from], t.IDs[o.to]); err != nil {
			return nil, err
		}
	}
	return wf, nil
}

// Volumes are a spec's parsed per-task mean work quantities and its
// variation: everything a draw reads besides the topology and the seed.
type Volumes struct {
	// Flops, Mem and Net are per-node means, FS the per-task mean.
	Flops, Mem, Net, FS float64
	// Payload is the per-edge mean; a value <= 0 draws no payloads.
	Payload float64
	// CV is the lognormal sigma; a value <= 0 draws constant work.
	CV float64
}

// Volumes parses the normalized spec's work quantities.
func (s *Spec) Volumes() (Volumes, error) {
	n := s.normalized()
	return n.volumes()
}

// volumes parses an already-normalized spec's work quantities.
func (n *Spec) volumes() (Volumes, error) {
	flops, err := units.ParseFlops(n.Flops)
	if err != nil {
		return Volumes{}, err
	}
	v := Volumes{Flops: float64(flops), CV: n.CV}
	for _, q := range []struct {
		dst *float64
		val string
	}{{&v.Mem, n.Mem}, {&v.Net, n.Net}, {&v.FS, n.FS}, {&v.Payload, n.Payload}} {
		if q.val == "" {
			continue
		}
		b, err := units.ParseBytes(q.val)
		if err != nil {
			return Volumes{}, err
		}
		*q.dst = float64(b)
	}
	return v, nil
}

// factor draws one mean-preserving lognormal multiplier: exp(sigma*z -
// sigma^2/2) has expectation 1 for any sigma. CV 0 draws nothing and keeps
// work constant.
func (v *Volumes) factor(r *rng) float64 {
	sigma := v.CV
	if sigma <= 0 {
		return 1
	}
	return math.Exp(sigma*r.normal() - 0.5*sigma*sigma)
}

// Topology is the compiled, work-free structure of one (Family, Width,
// Depth): the tasks and edges the family's builder creates, in index form.
// Seed, CV, the work volumes, the partition and the node count never change
// it, so one Topology serves every scenario drawn from a template. It is
// immutable and safe for concurrent use.
//
// Tasks are numbered by ascending ID, the order a simulator plan runs them
// in. ops keeps the builder's construction sequence in those numbers, so a
// draw consumes the random stream, and Generate adds tasks and edges, in
// exactly the builder's order.
type Topology struct {
	// Shape is the family's closed-form structure.
	Shape Shape
	// IDs are the task IDs, ascending.
	IDs []string
	// SuccOff and Succ are the successor lists in compressed rows: task i's
	// distinct successors are Succ[SuccOff[i]:SuccOff[i+1]], ascending.
	SuccOff, Succ []int32

	ops []op
}

// op is one construction step: from < 0 creates task to, otherwise it adds
// the edge from -> to.
type op struct{ from, to int32 }

// CompileTopology validates the spec and compiles the topology of its
// family, width and depth.
func CompileTopology(s *Spec) (*Topology, error) {
	n := s.normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return compileTopology(&n), nil
}

// compileTopology runs the family's builder on a validated, normalized
// spec and renumbers its tasks by ID.
func compileTopology(n *Spec) *Topology {
	shape, _ := n.shape()
	// Every family adds fewer than two edges per task.
	b := &builder{spec: n, ids: make([]string, 0, shape.Tasks), ops: make([]op, 0, 3*shape.Tasks)}
	switch n.Family {
	case "chain":
		b.chain()
	case "fanout":
		b.fanout()
	case "diamond":
		b.diamond()
	case "montage":
		b.montage()
	case "epigenomics":
		b.epigenomics()
	case "bag":
		b.bag()
	case "mapreduce":
		b.mapreduce()
	case "scatter":
		b.scatter()
	}
	return b.compile(shape)
}

// compile renumbers the recorded tasks by ascending ID and derives the
// successor rows.
func (b *builder) compile(shape Shape) *Topology {
	n := len(b.ids)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(b.ids[x], b.ids[y]) })
	rank := make([]int32, n)
	t := &Topology{Shape: shape, IDs: make([]string, n), SuccOff: make([]int32, n+1), ops: slices.Clip(b.ops)}
	for k, i := range order {
		rank[i] = int32(k)
		t.IDs[k] = b.ids[i]
	}
	edges := 0
	for i := range t.ops {
		o := &t.ops[i]
		o.to = rank[o.to]
		if o.from >= 0 {
			o.from = rank[o.from]
			t.SuccOff[o.from+1]++
			edges++
		}
	}
	for i := 0; i < n; i++ {
		t.SuccOff[i+1] += t.SuccOff[i]
	}
	t.Succ = make([]int32, edges)
	cur := order
	copy(cur, t.SuccOff[:n])
	for _, o := range t.ops {
		if o.from >= 0 {
			t.Succ[cur[o.from]] = o.to
			cur[o.from]++
		}
	}
	// Sort each row and drop repeated edges in place.
	w := int32(0)
	for i := 0; i < n; i++ {
		row := t.Succ[t.SuccOff[i]:t.SuccOff[i+1]]
		slices.Sort(row)
		t.SuccOff[i] = w
		for k, s := range row {
			if k == 0 || s != row[k-1] {
				t.Succ[w] = s
				w++
			}
		}
	}
	t.SuccOff[n] = w
	t.Succ = t.Succ[:w:w]
	return t
}

// Draw draws one scenario's per-task work into dst, grown to the task count
// and returned, indexed like IDs. It consumes the seed's splitmix64 stream
// in the builder's construction order — one lognormal factor per task as it
// is created and, with payloads on, one per edge as it is added, charged to
// both endpoints' file-system volume (the producer writes the intermediate
// to the shared file system and the consumer reads it back) — so every
// float matches what Generate attaches to each task, bit for bit.
func (t *Topology) Draw(v *Volumes, seed uint64, dst []workflow.Work) []workflow.Work {
	if cap(dst) < len(t.IDs) {
		dst = make([]workflow.Work, len(t.IDs))
	}
	dst = dst[:len(t.IDs)]
	r := rng{state: seed}
	for _, o := range t.ops {
		if o.from < 0 {
			// All work components share one drawn factor, so a "big" task is
			// big across the board.
			f := v.factor(&r)
			dst[o.to] = workflow.Work{
				Flops:        units.Flops(v.Flops * f),
				MemBytes:     units.Bytes(v.Mem * f),
				NetworkBytes: units.Bytes(v.Net * f),
				FSBytes:      units.Bytes(v.FS * f),
			}
			continue
		}
		if v.Payload <= 0 {
			continue
		}
		bytes := units.Bytes(v.Payload * v.factor(&r))
		dst[o.from].FSBytes += bytes
		dst[o.to].FSBytes += bytes
	}
	return dst
}

// builder records one family's construction sequence: tasks by insertion
// index, in creation order, and edges between them.
type builder struct {
	spec *Spec
	ids  []string
	ops  []op
}

// task creates the next task and returns its insertion index.
func (b *builder) task(id string) int32 {
	i := int32(len(b.ids))
	b.ids = append(b.ids, id)
	b.ops = append(b.ops, op{from: -1, to: i})
	return i
}

// dep adds the edge from -> to.
func (b *builder) dep(from, to int32) { b.ops = append(b.ops, op{from: from, to: to}) }

// chain: Depth tasks in a single line.
func (b *builder) chain() {
	d := int32(b.spec.Depth)
	for i := int32(0); i < d; i++ {
		b.task(taskID("t", int(i)))
	}
	for i := int32(1); i < d; i++ {
		b.dep(i-1, i)
	}
}

// fanout: source -> Width workers -> sink.
func (b *builder) fanout() {
	w := int32(b.spec.Width)
	source := b.task("source")
	for i := int32(0); i < w; i++ {
		b.task(taskID("work", int(i)))
	}
	sink := b.task("sink")
	for i := int32(0); i < w; i++ {
		b.dep(source, source+1+i)
		b.dep(source+1+i, sink)
	}
}

// diamond: Depth chained diamonds, each split -> Width branches -> merge.
func (b *builder) diamond() {
	w := int32(b.spec.Width)
	prevMerge := int32(-1)
	for k := 0; k < b.spec.Depth; k++ {
		split := b.task(taskID("split", k))
		for i := int32(0); i < w; i++ {
			b.task(taskID2("branch", k, "_", int(i)))
		}
		merge := b.task(taskID("merge", k))
		if k > 0 {
			b.dep(prevMerge, split)
		}
		for i := int32(0); i < w; i++ {
			b.dep(split, split+1+i)
			b.dep(split+1+i, merge)
		}
		prevMerge = merge
	}
}

// montage mirrors the classic mosaic pipeline: W projections, W-1 pairwise
// difference fits, one background model gathering them, W background
// corrections (each also re-reading its projection), then the serial
// imgtbl -> add -> shrink -> jpeg tail. 3W+4 tasks over 8 levels.
func (b *builder) montage() {
	w := b.spec.Width
	for i := 0; i < w; i++ {
		b.task(taskID("project", i)) // project i is task i
	}
	for i := 0; i < w-1; i++ {
		b.task(taskID("diff", i)) // diff i is task w+i
	}
	bgmodel := b.task("bgmodel")
	for i := 0; i < w; i++ {
		b.task(taskID("background", i)) // background i is task bgmodel+1+i
	}
	imgtbl := b.task("imgtbl")
	add := b.task("add")
	shrink := b.task("shrink")
	jpeg := b.task("jpeg")
	for i := int32(0); i < int32(w-1); i++ {
		diff := int32(w) + i
		b.dep(i, diff)
		b.dep(i+1, diff)
		b.dep(diff, bgmodel)
	}
	for i := int32(0); i < int32(w); i++ {
		bg := bgmodel + 1 + i
		b.dep(bgmodel, bg)
		b.dep(i, bg)
		b.dep(bg, imgtbl)
	}
	b.dep(imgtbl, add)
	b.dep(add, shrink)
	b.dep(shrink, jpeg)
}

// epigenomics mirrors the genome-pipeline shape: one split feeding Width
// independent Depth-stage lanes, then the serial merge -> index -> pileup
// tail. W*D+4 tasks over D+4 levels.
func (b *builder) epigenomics() {
	w, d := b.spec.Width, b.spec.Depth
	split := b.task("split")
	for lane := 0; lane < w; lane++ {
		for stage := 0; stage < d; stage++ {
			b.task(taskID2("lane", lane, "_s", stage)) // task split+1+lane*d+stage
		}
	}
	merge := b.task("merge")
	index := b.task("index")
	pileup := b.task("pileup")
	for lane := int32(0); lane < int32(w); lane++ {
		first := split + 1 + lane*int32(d)
		b.dep(split, first)
		for s := first + 1; s < first+int32(d); s++ {
			b.dep(s-1, s)
		}
		b.dep(first+int32(d)-1, merge)
	}
	b.dep(merge, index)
	b.dep(index, pileup)
}

// bag: Width independent tasks.
func (b *builder) bag() {
	for i := 0; i < b.spec.Width; i++ {
		b.task(taskID("task", i))
	}
}

// mapreduce: Depth rounds of Width mappers feeding one reducer, each
// round's reducer gating the next round's mappers. D*(W+1) tasks over 2D
// levels.
func (b *builder) mapreduce() {
	w := int32(b.spec.Width)
	prevReduce := int32(-1)
	for k := 0; k < b.spec.Depth; k++ {
		first := int32(len(b.ids))
		for i := int32(0); i < w; i++ {
			b.task(taskID2("map", k, "_", int(i)))
		}
		reduce := b.task(taskID("reduce", k))
		for i := int32(0); i < w; i++ {
			if k > 0 {
				b.dep(prevReduce, first+i)
			}
			b.dep(first+i, reduce)
		}
		prevReduce = reduce
	}
}

// scatter: a binary scatter tree of Depth levels down to 2^Depth leaves,
// then the mirror-image gather tree. 3*2^D-2 tasks over 2D+1 levels.
func (b *builder) scatter() {
	d := b.spec.Depth
	// Scatter level l holds tasks 2^l-1 .. 2^(l+1)-2.
	for l := 0; l <= d; l++ {
		for i := 0; i < 1<<l; i++ {
			t := b.task(taskID2("scatter", l, "_", i))
			if l > 0 {
				b.dep(int32(1<<(l-1)-1+i/2), t)
			}
		}
	}
	// Each gather task joins a pair from the level below, the leaves first.
	below := int32(1<<d - 1)
	for l := d - 1; l >= 0; l-- {
		first := int32(len(b.ids))
		for i := int32(0); i < 1<<l; i++ {
			g := b.task(taskID2("gather", l, "_", int(i)))
			b.dep(below+2*i, g)
			b.dep(below+2*i+1, g)
		}
		below = first
	}
}

// taskID renders prefix followed by i zero-padded to four digits: exactly
// fmt.Sprintf(prefix+"%04d", i) for i >= 0, built on the stack and copied
// into the string in one allocation.
func taskID(prefix string, i int) string {
	var buf [32]byte
	return string(appendPad4(append(buf[:0], prefix...), i))
}

// taskID2 is taskID for two indices: fmt.Sprintf(prefix+"%04d"+sep+"%04d",
// i, j) for i, j >= 0.
func taskID2(prefix string, i int, sep string, j int) string {
	var buf [32]byte
	b := appendPad4(append(buf[:0], prefix...), i)
	return string(appendPad4(append(b, sep...), j))
}

// appendPad4 appends i >= 0 in decimal, zero-padded to at least four
// digits (the %04d verb).
func appendPad4(b []byte, i int) []byte {
	for w := 1000; w > 1 && i < w; w /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}
