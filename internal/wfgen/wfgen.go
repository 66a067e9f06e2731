// Package wfgen generates synthetic workflow scenarios for corpus-scale
// roofline studies, in the spirit of WfBench's parameterized benchmarks:
// seeded, bit-reproducible DAGs drawn from a small catalog of topology
// families (chains, fan-outs, diamonds, and Montage/Epigenomics-like
// multi-stage shapes) with tunable width, depth, and per-task work
// distributions.
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
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

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
	// or "epigenomics".
	Family string `json:"family"`
	// Seed drives the generator's splitmix64 stream.
	Seed uint64 `json:"seed,omitempty"`
	// Width is the parallel width of the family (ignored by chain).
	// Default 4.
	Width int `json:"width,omitempty"`
	// Depth is the stage count for chain, diamond, and epigenomics
	// (ignored by fanout and montage). Default 3.
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

// Families lists the topology families in generation order.
func Families() []string {
	return []string{"chain", "fanout", "diamond", "montage", "epigenomics"}
}

// ParseSpec strictly decodes a generator spec: unknown fields are errors,
// and the decoded spec is validated.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("wfgen: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

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

// Validate checks the spec against the family's structural requirements and
// the work-quantity grammar.
func (s *Spec) Validate() error {
	n := s.normalized()
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
	default:
		return Shape{}, fmt.Errorf("wfgen: unknown family %q (want %v)", s.Family, Families())
	}
}

// Generate builds the workflow the spec describes.
func Generate(s *Spec) (*workflow.Workflow, error) {
	n := s.normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b, err := newBuilder(&n)
	if err != nil {
		return nil, err
	}
	switch n.Family {
	case "chain":
		err = b.chain()
	case "fanout":
		err = b.fanout()
	case "diamond":
		err = b.diamond()
	case "montage":
		err = b.montage()
	case "epigenomics":
		err = b.epigenomics()
	}
	if err != nil {
		return nil, err
	}
	return b.wf, nil
}

// builder accumulates one workflow. Task and edge creation draw from the
// stream in source order, which is what makes generation deterministic.
type builder struct {
	wf      *workflow.Workflow
	rng     *rng
	spec    *Spec
	flops   float64
	mem     float64
	net     float64
	fs      float64
	payload float64
}

func newBuilder(n *Spec) (*builder, error) {
	flops, err := units.ParseFlops(n.Flops)
	if err != nil {
		return nil, err
	}
	mem, err := units.ParseBytes(n.Mem)
	if err != nil {
		return nil, err
	}
	net, err := units.ParseBytes(n.Net)
	if err != nil {
		return nil, err
	}
	fs, err := units.ParseBytes(n.FS)
	if err != nil {
		return nil, err
	}
	var payload units.Bytes
	if n.Payload != "" {
		if payload, err = units.ParseBytes(n.Payload); err != nil {
			return nil, err
		}
	}
	name := fmt.Sprintf("gen-%s-w%d-d%d-s%d", n.Family, n.Width, n.Depth, n.Seed)
	return &builder{
		wf:      workflow.New(name, n.Partition),
		rng:     newRNG(n.Seed),
		spec:    n,
		flops:   float64(flops),
		mem:     float64(mem),
		net:     float64(net),
		fs:      float64(fs),
		payload: float64(payload),
	}, nil
}

// factor draws one mean-preserving lognormal multiplier: exp(sigma*z -
// sigma^2/2) has expectation 1 for any sigma. CV 0 draws nothing and keeps
// work constant.
func (b *builder) factor() float64 {
	sigma := b.spec.CV
	if sigma <= 0 {
		return 1
	}
	return math.Exp(sigma*b.rng.normal() - 0.5*sigma*sigma)
}

// task creates one task; all work components share one drawn factor, so a
// "big" task is big across the board.
func (b *builder) task(id string) error {
	f := b.factor()
	return b.wf.AddTask(&workflow.Task{
		ID:    id,
		Nodes: b.spec.NodesPerTask,
		Work: workflow.Work{
			Flops:        units.Flops(b.flops * f),
			MemBytes:     units.Bytes(b.mem * f),
			NetworkBytes: units.Bytes(b.net * f),
			FSBytes:      units.Bytes(b.fs * f),
		},
	})
}

// dep adds the edge and charges the drawn payload to both endpoints'
// file-system volume: the producer writes the intermediate to the shared
// file system and the consumer reads it back.
func (b *builder) dep(from, to string) error {
	if err := b.wf.AddDep(from, to); err != nil {
		return err
	}
	if b.payload <= 0 {
		return nil
	}
	bytes := units.Bytes(b.payload * b.factor())
	src, err := b.wf.Task(from)
	if err != nil {
		return err
	}
	dst, err := b.wf.Task(to)
	if err != nil {
		return err
	}
	src.Work.FSBytes += bytes
	dst.Work.FSBytes += bytes
	return nil
}

// chain: Depth tasks in a single line.
func (b *builder) chain() error {
	d := b.spec.Depth
	ids := make([]string, d)
	for i := range ids {
		ids[i] = taskID("t", i)
		if err := b.task(ids[i]); err != nil {
			return err
		}
	}
	for i := 1; i < d; i++ {
		if err := b.dep(ids[i-1], ids[i]); err != nil {
			return err
		}
	}
	return nil
}

// fanout: source -> Width workers -> sink.
func (b *builder) fanout() error {
	if err := b.task("source"); err != nil {
		return err
	}
	work := make([]string, b.spec.Width)
	for i := range work {
		work[i] = taskID("work", i)
		if err := b.task(work[i]); err != nil {
			return err
		}
	}
	if err := b.task("sink"); err != nil {
		return err
	}
	for _, id := range work {
		if err := b.dep("source", id); err != nil {
			return err
		}
		if err := b.dep(id, "sink"); err != nil {
			return err
		}
	}
	return nil
}

// diamond: Depth chained diamonds, each split -> Width branches -> merge.
func (b *builder) diamond() error {
	w, d := b.spec.Width, b.spec.Depth
	branches := make([]string, w)
	prevMerge := ""
	for k := 0; k < d; k++ {
		split := taskID("split", k)
		merge := taskID("merge", k)
		if err := b.task(split); err != nil {
			return err
		}
		for i := range branches {
			branches[i] = taskID2("branch", k, "_", i)
			if err := b.task(branches[i]); err != nil {
				return err
			}
		}
		if err := b.task(merge); err != nil {
			return err
		}
		if k > 0 {
			if err := b.dep(prevMerge, split); err != nil {
				return err
			}
		}
		for _, id := range branches {
			if err := b.dep(split, id); err != nil {
				return err
			}
			if err := b.dep(id, merge); err != nil {
				return err
			}
		}
		prevMerge = merge
	}
	return nil
}

// montage mirrors the classic mosaic pipeline: W projections, W-1 pairwise
// difference fits, one background model gathering them, W background
// corrections (each also re-reading its projection), then the serial
// imgtbl -> add -> shrink -> jpeg tail. 3W+4 tasks over 8 levels.
func (b *builder) montage() error {
	w := b.spec.Width
	// One slab holds the W projection, W-1 difference and W background IDs.
	ids := make([]string, 3*w-1)
	project, diff, bg := ids[:w], ids[w:2*w-1], ids[2*w-1:]
	for i := range project {
		project[i] = taskID("project", i)
		if err := b.task(project[i]); err != nil {
			return err
		}
	}
	for i := range diff {
		diff[i] = taskID("diff", i)
		if err := b.task(diff[i]); err != nil {
			return err
		}
	}
	if err := b.task("bgmodel"); err != nil {
		return err
	}
	for i := range bg {
		bg[i] = taskID("background", i)
		if err := b.task(bg[i]); err != nil {
			return err
		}
	}
	for _, id := range []string{"imgtbl", "add", "shrink", "jpeg"} {
		if err := b.task(id); err != nil {
			return err
		}
	}
	for i, id := range diff {
		if err := b.dep(project[i], id); err != nil {
			return err
		}
		if err := b.dep(project[i+1], id); err != nil {
			return err
		}
		if err := b.dep(id, "bgmodel"); err != nil {
			return err
		}
	}
	for i, id := range bg {
		if err := b.dep("bgmodel", id); err != nil {
			return err
		}
		if err := b.dep(project[i], id); err != nil {
			return err
		}
		if err := b.dep(id, "imgtbl"); err != nil {
			return err
		}
	}
	for _, e := range [][2]string{{"imgtbl", "add"}, {"add", "shrink"}, {"shrink", "jpeg"}} {
		if err := b.dep(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

// epigenomics mirrors the genome-pipeline shape: one split feeding Width
// independent Depth-stage lanes, then the serial merge -> index -> pileup
// tail. W*D+4 tasks over D+4 levels.
func (b *builder) epigenomics() error {
	w, d := b.spec.Width, b.spec.Depth
	if err := b.task("split"); err != nil {
		return err
	}
	// Lane l's stage s is ids[l*d+s].
	ids := make([]string, w*d)
	for lane := 0; lane < w; lane++ {
		for stage := 0; stage < d; stage++ {
			id := taskID2("lane", lane, "_s", stage)
			ids[lane*d+stage] = id
			if err := b.task(id); err != nil {
				return err
			}
		}
	}
	for _, id := range []string{"merge", "index", "pileup"} {
		if err := b.task(id); err != nil {
			return err
		}
	}
	for lane := 0; lane < w; lane++ {
		stages := ids[lane*d : (lane+1)*d]
		if err := b.dep("split", stages[0]); err != nil {
			return err
		}
		for stage := 1; stage < d; stage++ {
			if err := b.dep(stages[stage-1], stages[stage]); err != nil {
				return err
			}
		}
		if err := b.dep(stages[d-1], "merge"); err != nil {
			return err
		}
	}
	for _, e := range [][2]string{{"merge", "index"}, {"index", "pileup"}} {
		if err := b.dep(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
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
