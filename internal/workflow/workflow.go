// Package workflow characterizes workflows for the Workflow Roofline model.
//
// A workflow is a DAG of tasks. Each task carries the per-task work vector
// the paper's methodology collects (Table I): node-level FLOPs and bytes
// (DRAM/HBM and PCIe), and system-level bytes (network/MPI, file system,
// external staging), plus its node requirement. Targets (makespan and
// throughput) attach to the workflow as a whole.
package workflow

import (
	"encoding/json"
	"fmt"
	"sort"

	"wroofline/internal/dag"
	"wroofline/internal/units"
)

// Work is the per-task work vector the roofline methodology characterizes.
// Node-scoped entries (Flops, MemBytes, PCIeBytes, NetworkBytes) are *per
// node* of the task; system-scoped entries (FSBytes, ExternalBytes) are per
// task in total, because they flow through shared system resources.
type Work struct {
	// Flops is the floating-point work per node.
	Flops units.Flops `json:"flops,omitempty"`
	// MemBytes is the DRAM/HBM traffic per node.
	MemBytes units.Bytes `json:"mem_bytes,omitempty"`
	// PCIeBytes is the host<->device traffic per node.
	PCIeBytes units.Bytes `json:"pcie_bytes,omitempty"`
	// NetworkBytes is the MPI / interconnect traffic per node.
	NetworkBytes units.Bytes `json:"network_bytes,omitempty"`
	// FSBytes is the total file-system traffic of the task.
	FSBytes units.Bytes `json:"fs_bytes,omitempty"`
	// ExternalBytes is the total externally-staged traffic of the task.
	ExternalBytes units.Bytes `json:"external_bytes,omitempty"`
}

// Add returns the component-wise sum of two work vectors.
func (w Work) Add(o Work) Work {
	return Work{
		Flops:         w.Flops + o.Flops,
		MemBytes:      w.MemBytes + o.MemBytes,
		PCIeBytes:     w.PCIeBytes + o.PCIeBytes,
		NetworkBytes:  w.NetworkBytes + o.NetworkBytes,
		FSBytes:       w.FSBytes + o.FSBytes,
		ExternalBytes: w.ExternalBytes + o.ExternalBytes,
	}
}

// Max returns the component-wise maximum of w and o: each component of o
// replaces w's only when it is greater, so the result does not depend on
// the order a running maximum visits its vectors in.
func (w Work) Max(o Work) Work {
	if o.Flops > w.Flops {
		w.Flops = o.Flops
	}
	if o.MemBytes > w.MemBytes {
		w.MemBytes = o.MemBytes
	}
	if o.PCIeBytes > w.PCIeBytes {
		w.PCIeBytes = o.PCIeBytes
	}
	if o.NetworkBytes > w.NetworkBytes {
		w.NetworkBytes = o.NetworkBytes
	}
	if o.FSBytes > w.FSBytes {
		w.FSBytes = o.FSBytes
	}
	if o.ExternalBytes > w.ExternalBytes {
		w.ExternalBytes = o.ExternalBytes
	}
	return w
}

// IsZero reports whether every component is zero.
func (w Work) IsZero() bool { return w == Work{} }

// Task is one job in a workflow: an MPI application, a script, or anything
// the workflow developer schedules as a unit.
type Task struct {
	// ID is the unique task identifier within the workflow.
	ID string `json:"id"`
	// Name is an optional human-readable label; defaults to ID.
	Name string `json:"name,omitempty"`
	// Nodes is the number of compute nodes the task occupies.
	Nodes int `json:"nodes"`
	// Procs is the optional process count (informational; Nodes drives the
	// parallelism wall).
	Procs int `json:"procs,omitempty"`
	// Work is the characterized work vector.
	Work Work `json:"work"`
	// MeasuredSeconds is the empirically measured wall-clock duration, when
	// known (0 when only modeled).
	MeasuredSeconds float64 `json:"measured_seconds,omitempty"`
}

// Label returns Name when set, otherwise ID.
func (t *Task) Label() string {
	if t.Name != "" {
		return t.Name
	}
	return t.ID
}

// Targets carries the workflow's performance goals: a deadline and a
// throughput floor (the dotted lines in the paper's Fig 2a).
type Targets struct {
	// MakespanSeconds is the end-to-end deadline; 0 means no deadline.
	MakespanSeconds float64 `json:"makespan_seconds,omitempty"`
	// ThroughputTPS is the required tasks-per-second; 0 means none.
	ThroughputTPS float64 `json:"throughput_tps,omitempty"`
}

// Workflow is a named DAG of characterized tasks.
type Workflow struct {
	// Name identifies the workflow, e.g. "LCLS".
	Name string
	// Partition names the machine partition the workflow runs on.
	Partition string
	// Targets holds the optional makespan/throughput goals.
	Targets Targets

	graph *dag.Graph
	tasks map[string]*Task
}

// New returns an empty workflow bound to a machine partition name.
func New(name, partition string) *Workflow {
	return &Workflow{
		Name:      name,
		Partition: partition,
		graph:     dag.New(),
		tasks:     make(map[string]*Task),
	}
}

// AddTask inserts a task vertex. It rejects duplicates, empty ids, and
// non-positive node counts.
func (w *Workflow) AddTask(t *Task) error {
	if t == nil {
		return fmt.Errorf("workflow %s: nil task", w.Name)
	}
	if t.ID == "" {
		return fmt.Errorf("workflow %s: task with empty id", w.Name)
	}
	if _, dup := w.tasks[t.ID]; dup {
		return fmt.Errorf("workflow %s: duplicate task %q", w.Name, t.ID)
	}
	if t.Nodes <= 0 {
		return fmt.Errorf("workflow %s: task %q needs a positive node count, got %d", w.Name, t.ID, t.Nodes)
	}
	if err := w.graph.AddNode(t.ID); err != nil {
		return fmt.Errorf("workflow %s: %w", w.Name, err)
	}
	w.tasks[t.ID] = t
	return nil
}

// AddDep records that task "to" depends on task "from". Both must already
// exist.
func (w *Workflow) AddDep(from, to string) error {
	if _, ok := w.tasks[from]; !ok {
		return fmt.Errorf("workflow %s: unknown task %q", w.Name, from)
	}
	if _, ok := w.tasks[to]; !ok {
		return fmt.Errorf("workflow %s: unknown task %q", w.Name, to)
	}
	if err := w.graph.AddEdge(from, to); err != nil {
		return fmt.Errorf("workflow %s: %w", w.Name, err)
	}
	return nil
}

// Graph exposes the underlying task DAG (read-only by convention).
func (w *Workflow) Graph() *dag.Graph { return w.graph }

// Task returns the task by id.
func (w *Workflow) Task(id string) (*Task, error) {
	t, ok := w.tasks[id]
	if !ok {
		return nil, fmt.Errorf("workflow %s: unknown task %q", w.Name, id)
	}
	return t, nil
}

// Tasks returns all tasks ordered by id for determinism.
func (w *Workflow) Tasks() []*Task {
	out := make([]*Task, 0, len(w.tasks))
	for _, t := range w.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalTasks returns the task count (the numerator of achieved throughput).
func (w *Workflow) TotalTasks() int { return len(w.tasks) }

// ParallelTasks returns the widest DAG level — the paper's "number of
// parallel tasks" x-coordinate.
func (w *Workflow) ParallelTasks() (int, error) {
	width, err := w.graph.Width()
	if err != nil {
		return 0, fmt.Errorf("workflow %s: %w", w.Name, err)
	}
	return width, nil
}

// MaxTaskNodes returns the largest per-task node requirement, which drives
// the system parallelism wall.
func (w *Workflow) MaxTaskNodes() int {
	n := 0
	for _, t := range w.tasks {
		if t.Nodes > n {
			n = t.Nodes
		}
	}
	return n
}

// MaxWorkPerTask returns the component-wise maximum work vector across
// tasks. The roofline ceilings for the whole workflow use the heaviest task
// per component, since that task bounds the steady-state task rate.
func (w *Workflow) MaxWorkPerTask() Work {
	var m Work
	for _, t := range w.tasks {
		m = m.Max(t.Work)
	}
	return m
}

// CriticalPathMeasured returns the critical path and its cost using each
// task's MeasuredSeconds as the weight.
func (w *Workflow) CriticalPathMeasured() ([]string, float64, error) {
	weights := make(map[string]float64, len(w.tasks))
	for id, t := range w.tasks {
		weights[id] = t.MeasuredSeconds
	}
	path, total, err := w.graph.CriticalPath(weights)
	if err != nil {
		return nil, 0, fmt.Errorf("workflow %s: %w", w.Name, err)
	}
	return path, total, nil
}

// Validate checks the workflow is non-empty and acyclic.
func (w *Workflow) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workflow: missing name")
	}
	if len(w.tasks) == 0 {
		return fmt.Errorf("workflow %s: no tasks", w.Name)
	}
	if err := w.graph.Validate(); err != nil {
		return fmt.Errorf("workflow %s: %w", w.Name, err)
	}
	return nil
}

// jsonWorkflow is the serialized form: tasks plus explicit dependency edges.
type jsonWorkflow struct {
	Name      string      `json:"name"`
	Partition string      `json:"partition"`
	Targets   Targets     `json:"targets,omitempty"`
	Tasks     []*Task     `json:"tasks"`
	Deps      [][2]string `json:"deps,omitempty"`
}

// MarshalJSON serializes the workflow with a stable task and edge order.
func (w *Workflow) MarshalJSON() ([]byte, error) {
	jw := jsonWorkflow{
		Name:      w.Name,
		Partition: w.Partition,
		Targets:   w.Targets,
		Tasks:     w.Tasks(),
	}
	for _, from := range w.graph.Nodes() {
		for _, to := range w.graph.Succs(from) {
			jw.Deps = append(jw.Deps, [2]string{from, to})
		}
	}
	sort.Slice(jw.Deps, func(i, j int) bool {
		if jw.Deps[i][0] != jw.Deps[j][0] {
			return jw.Deps[i][0] < jw.Deps[j][0]
		}
		return jw.Deps[i][1] < jw.Deps[j][1]
	})
	return json.Marshal(jw)
}

// UnmarshalJSON rebuilds and validates a workflow.
func (w *Workflow) UnmarshalJSON(data []byte) error {
	var jw jsonWorkflow
	if err := json.Unmarshal(data, &jw); err != nil {
		return fmt.Errorf("workflow: decode: %w", err)
	}
	nw := New(jw.Name, jw.Partition)
	nw.Targets = jw.Targets
	for _, t := range jw.Tasks {
		if err := nw.AddTask(t); err != nil {
			return err
		}
	}
	for _, d := range jw.Deps {
		if err := nw.AddDep(d[0], d[1]); err != nil {
			return err
		}
	}
	if err := nw.Validate(); err != nil {
		return err
	}
	*w = *nw
	return nil
}
