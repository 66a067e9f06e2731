// Package machine characterizes HPC system architectures for the Workflow
// Roofline model: per-node peaks (compute, memory, PCIe, NIC) and
// system-wide peaks (file system, burst buffer, external/DTN bandwidth),
// plus node counts from which the system parallelism wall is derived.
//
// The built-in specs reproduce the systems in the paper's appendix:
// Perlmutter's GPU and CPU partitions and Cori Haswell.
package machine

import (
	"encoding/json"
	"fmt"
	"sort"

	"wroofline/internal/units"
)

// NUMA refines a partition's flat NodeMemBW into a socket topology: the
// node's memory peak is the sum of per-socket local bandwidths, but any
// traffic a task drives across the inter-socket fabric (remote accesses)
// moves at the much lower inter-socket rate. The effective node bandwidth
// combines the two harmonically (see Partition.EffectiveMemBW).
type NUMA struct {
	// Sockets is the number of NUMA domains per node (CPU sockets, or HBM
	// stacks on multi-GPU nodes).
	Sockets int `json:"sockets"`
	// SocketMemBW is the local memory bandwidth of one domain; the node's
	// aggregate local peak is Sockets x SocketMemBW.
	SocketMemBW units.ByteRate `json:"socket_mem_bw"`
	// InterSocketBW is the bandwidth of the inter-socket fabric (xGMI, UPI,
	// NVLink) that remote accesses traverse. Required when RemoteFraction is
	// positive.
	InterSocketBW units.ByteRate `json:"inter_socket_bw,omitempty"`
	// RemoteFraction in [0,1] is the fraction of memory traffic that crosses
	// sockets. Zero models perfectly pinned tasks: the effective bandwidth is
	// exactly the local aggregate.
	RemoteFraction float64 `json:"remote_fraction,omitempty"`
}

// Partition describes one homogeneous node pool of a machine (e.g. the
// Perlmutter GPU partition). All node-level peaks are per-node aggregates:
// a Perlmutter GPU node reports 4 x 9.7 TFLOPS = 38.8 TFLOPS.
type Partition struct {
	// Name identifies the partition, e.g. "gpu" or "cpu".
	Name string `json:"name"`
	// Nodes is the number of schedulable nodes in the partition.
	Nodes int `json:"nodes"`
	// CoresPerNode is the CPU core count per node (used to translate a
	// process count into a node requirement).
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// GPUsPerNode is the accelerator count per node (0 for CPU partitions).
	GPUsPerNode int `json:"gpus_per_node,omitempty"`
	// NodeFlops is the aggregate peak compute rate per node.
	NodeFlops units.FlopRate `json:"node_flops"`
	// NodeMemBW is the aggregate peak main-memory (DRAM or HBM) bandwidth
	// per node.
	NodeMemBW units.ByteRate `json:"node_mem_bw"`
	// NodePCIeBW is the aggregate host<->device PCIe bandwidth per node per
	// direction (0 when there are no accelerators).
	NodePCIeBW units.ByteRate `json:"node_pcie_bw,omitempty"`
	// NodeNICBW is the aggregate network-injection bandwidth per node per
	// direction.
	NodeNICBW units.ByteRate `json:"node_nic_bw"`
	// NUMA optionally refines NodeMemBW into a socket topology. When nil the
	// node is modeled flat and NodeMemBW is the memory peak.
	NUMA *NUMA `json:"numa,omitempty"`
}

// EffectiveMemBW returns the node memory bandwidth the NUMA topology
// sustains. Without a NUMA block it is exactly NodeMemBW (the flat model).
// With one, the local aggregate is Sockets x SocketMemBW, and the remote
// fraction f of traffic is limited by the inter-socket fabric; the two
// combine harmonically (time adds per byte):
//
//	BW_eff = 1 / ((1-f)/BW_local + f/BW_inter)
//
// A zero RemoteFraction therefore reproduces the flat model bit-exactly
// whenever Sockets x SocketMemBW equals NodeMemBW.
func (p *Partition) EffectiveMemBW() units.ByteRate {
	n := p.NUMA
	if n == nil {
		return p.NodeMemBW
	}
	local := float64(n.Sockets) * float64(n.SocketMemBW)
	if n.RemoteFraction <= 0 {
		return units.ByteRate(local)
	}
	return units.ByteRate(1 / ((1-n.RemoteFraction)/local + n.RemoteFraction/float64(n.InterSocketBW)))
}

// MaxParallelTasks returns the system parallelism wall for tasks that each
// require nodesPerTask nodes: floor(Nodes / nodesPerTask). It returns an
// error when nodesPerTask is not positive or exceeds the partition size.
func (p *Partition) MaxParallelTasks(nodesPerTask int) (int, error) {
	if nodesPerTask <= 0 {
		return 0, fmt.Errorf("machine: nodes per task must be positive, got %d", nodesPerTask)
	}
	if nodesPerTask > p.Nodes {
		return 0, fmt.Errorf("machine: task needs %d nodes but partition %q has only %d",
			nodesPerTask, p.Name, p.Nodes)
	}
	return p.Nodes / nodesPerTask, nil
}

// NodesForProcs returns the number of nodes needed to host procs processes
// at one process per core, rounding up. It returns an error if the partition
// does not record a core count.
func (p *Partition) NodesForProcs(procs int) (int, error) {
	if p.CoresPerNode <= 0 {
		return 0, fmt.Errorf("machine: partition %q has no cores_per_node", p.Name)
	}
	if procs <= 0 {
		return 0, fmt.Errorf("machine: process count must be positive, got %d", procs)
	}
	return (procs + p.CoresPerNode - 1) / p.CoresPerNode, nil
}

// Machine describes a full system: its partitions plus the shared,
// system-wide data paths.
type Machine struct {
	// Name identifies the machine, e.g. "Perlmutter".
	Name string `json:"name"`
	// Partitions holds the node pools keyed by partition name.
	Partitions map[string]*Partition `json:"partitions"`
	// FileSystemBW maps partition name to the peak aggregate bandwidth from
	// that partition to the shared parallel file system (the paper derives
	// 5.6 TB/s for PM-GPU and 4.8 TB/s for PM-CPU from I/O-group fabric
	// links).
	FileSystemBW map[string]units.ByteRate `json:"file_system_bw"`
	// BurstBufferBW is the aggregate burst-buffer bandwidth, when the system
	// has one (Cori: 140 BB nodes x 6.5 GB/s = 910 GB/s). Zero when absent.
	BurstBufferBW units.ByteRate `json:"burst_buffer_bw,omitempty"`
	// ExternalBW is the peak bandwidth for staging data in from outside the
	// system (data transfer nodes / WAN).
	ExternalBW units.ByteRate `json:"external_bw,omitempty"`
	// BisectionBW maps partition name to the fabric's bisection bandwidth,
	// the Ridgeline-style second network dimension: NodeNICBW bounds what one
	// node can inject, BisectionBW bounds what all nodes can push across the
	// fabric at once. Absent entries model an unconstrained (full-bisection)
	// fabric, which reduces exactly to the flat one-dimensional network model.
	BisectionBW map[string]units.ByteRate `json:"bisection_bw,omitempty"`
}

// BisectionShare is the fraction of injected traffic assumed to cross the
// fabric bisection under a uniform (all-to-all) traffic pattern: half the
// bytes stay on each side. Both the roofline builder and the simulator use
// it to turn per-node network volumes into bisection load.
const BisectionShare = 0.5

// Partition returns the named partition or an error listing the available
// names.
func (m *Machine) Partition(name string) (*Partition, error) {
	if p, ok := m.Partitions[name]; ok {
		return p, nil
	}
	names := make([]string, 0, len(m.Partitions))
	for n := range m.Partitions {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("machine: %s has no partition %q (have %v)", m.Name, name, names)
}

// FSBandwidth returns the file-system peak for the named partition, falling
// back to the burst buffer when no file-system entry exists.
func (m *Machine) FSBandwidth(partition string) (units.ByteRate, error) {
	if bw, ok := m.FileSystemBW[partition]; ok {
		return bw, nil
	}
	if m.BurstBufferBW > 0 {
		return m.BurstBufferBW, nil
	}
	return 0, fmt.Errorf("machine: %s has no file-system bandwidth for partition %q", m.Name, partition)
}

// ExternalPeak returns the external bandwidth in effect: override when it is
// positive (a contention scenario), the machine's ExternalBW otherwise.
func (m *Machine) ExternalPeak(override units.ByteRate) units.ByteRate {
	if override > 0 {
		return override
	}
	return m.ExternalBW
}

// Peaks are the rates Eq. (1) divides one partition's work by: the node
// peaks, which each node of a task has to itself, and the shared peaks,
// which every task on the partition draws from. A non-positive peak is a
// resource the partition lacks; work on it is a *NoPeakError.
// Machine.Peaks is the one place that decides them, so the roofline model,
// the pipeline bound and the simulator move every byte at the same rate.
type Peaks struct {
	// Machine and Partition name where the peaks hold.
	Machine, Partition string
	// Nodes is the partition's node count.
	Nodes int
	// Per-node peaks. Mem is the NUMA-aware EffectiveMemBW.
	Flops units.FlopRate
	Mem   units.ByteRate
	PCIe  units.ByteRate
	NIC   units.ByteRate
	// Aggregate shared peaks. FS falls back to the burst buffer (see
	// FSBandwidth); External is after the override; Bisection is zero on a
	// full-bisection fabric, which limits nothing.
	FS, External, Bisection units.ByteRate
}

// Peaks resolves the named partition's peaks, with external overriding the
// machine's external bandwidth when positive. It fails only for an unknown
// partition.
func (m *Machine) Peaks(partition string, external units.ByteRate) (Peaks, error) {
	p, err := m.Partition(partition)
	if err != nil {
		return Peaks{}, err
	}
	fs, _ := m.FSBandwidth(partition) // absent: a zero peak, reported on use
	return Peaks{
		Machine:   m.Name,
		Partition: p.Name,
		Nodes:     p.Nodes,
		Flops:     p.NodeFlops,
		Mem:       p.EffectiveMemBW(),
		PCIe:      p.NodePCIeBW,
		NIC:       p.NodeNICBW,
		FS:        fs,
		External:  m.ExternalPeak(external),
		Bisection: m.BisectionBW[partition],
	}, nil
}

// NoPeak returns the error for workflow's work on resource, which the
// partition has no peak for.
func (pk *Peaks) NoPeak(workflow, resource string) error {
	return &NoPeakError{Workflow: workflow, Resource: resource, Machine: pk.Machine, Partition: pk.Partition}
}

// NoPeakError reports work on a resource the partition has no peak for.
// The roofline model, the pipeline bound and the simulator report this one
// error, each behind its package prefix.
type NoPeakError struct {
	Workflow string
	// Resource is "compute", "memory", "pcie", "network", "filesystem" or
	// "external", as core.Resource names it.
	Resource           string
	Machine, Partition string
}

func (e *NoPeakError) Error() string {
	does, peak := "moves "+e.Resource+" data", e.Resource+" bandwidth"
	switch e.Resource {
	case "compute":
		does, peak = "computes", "compute peak"
	case "pcie":
		does, peak = "moves PCIe data", "PCIe bandwidth"
	case "network":
		peak = "NIC bandwidth"
	case "filesystem":
		does, peak = "moves file-system data", "file-system bandwidth"
	case "external":
		does = "stages external data"
	}
	return "workflow " + e.Workflow + " " + does + " but partition " + e.Machine + "/" + e.Partition + " has no " + peak
}

// Validate checks internal consistency: every partition must have a positive
// node count and at least one positive node-level peak, and file-system
// entries must reference existing partitions.
func (m *Machine) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("machine: missing name")
	}
	if len(m.Partitions) == 0 {
		return fmt.Errorf("machine %s: no partitions", m.Name)
	}
	for name, p := range m.Partitions {
		if p == nil {
			return fmt.Errorf("machine %s: partition %q is nil", m.Name, name)
		}
		if p.Name == "" {
			p.Name = name
		}
		if p.Name != name {
			return fmt.Errorf("machine %s: partition key %q disagrees with name %q", m.Name, name, p.Name)
		}
		if p.Nodes <= 0 {
			return fmt.Errorf("machine %s: partition %q has %d nodes", m.Name, name, p.Nodes)
		}
		if p.NodeFlops <= 0 && p.NodeMemBW <= 0 && p.NodeNICBW <= 0 {
			return fmt.Errorf("machine %s: partition %q has no node-level peaks", m.Name, name)
		}
		if p.NodeFlops < 0 || p.NodeMemBW < 0 || p.NodePCIeBW < 0 || p.NodeNICBW < 0 {
			return fmt.Errorf("machine %s: partition %q has a negative peak", m.Name, name)
		}
		if n := p.NUMA; n != nil {
			if n.Sockets <= 0 {
				return fmt.Errorf("machine %s: partition %q NUMA needs positive sockets, got %d", m.Name, name, n.Sockets)
			}
			if n.SocketMemBW <= 0 {
				return fmt.Errorf("machine %s: partition %q NUMA needs positive socket memory bandwidth", m.Name, name)
			}
			if n.RemoteFraction < 0 || n.RemoteFraction > 1 {
				return fmt.Errorf("machine %s: partition %q NUMA remote fraction %v outside [0,1]", m.Name, name, n.RemoteFraction)
			}
			if n.RemoteFraction > 0 && n.InterSocketBW <= 0 {
				return fmt.Errorf("machine %s: partition %q NUMA has remote traffic but no inter-socket bandwidth", m.Name, name)
			}
			if n.InterSocketBW < 0 {
				return fmt.Errorf("machine %s: partition %q NUMA has negative inter-socket bandwidth", m.Name, name)
			}
		}
	}
	for name, bw := range m.FileSystemBW {
		if _, ok := m.Partitions[name]; !ok {
			return fmt.Errorf("machine %s: file-system bandwidth references unknown partition %q", m.Name, name)
		}
		if bw <= 0 {
			return fmt.Errorf("machine %s: non-positive file-system bandwidth for %q", m.Name, name)
		}
	}
	for name, bw := range m.BisectionBW {
		if _, ok := m.Partitions[name]; !ok {
			return fmt.Errorf("machine %s: bisection bandwidth references unknown partition %q", m.Name, name)
		}
		if bw <= 0 {
			return fmt.Errorf("machine %s: non-positive bisection bandwidth for %q", m.Name, name)
		}
	}
	if m.BurstBufferBW < 0 || m.ExternalBW < 0 {
		return fmt.Errorf("machine %s: negative system bandwidth", m.Name)
	}
	return nil
}

// MarshalJSON emits the machine as plain JSON (quantities as raw floats in
// base units).
func (m *Machine) MarshalJSON() ([]byte, error) {
	type alias Machine
	return json.Marshal((*alias)(m))
}

// UnmarshalJSON parses and validates a machine description.
func (m *Machine) UnmarshalJSON(data []byte) error {
	type alias Machine
	if err := json.Unmarshal(data, (*alias)(m)); err != nil {
		return fmt.Errorf("machine: decode: %w", err)
	}
	return m.Validate()
}

// Clone returns a deep copy, so callers can derive what-if variants (e.g.
// degraded external bandwidth on a "bad day") without mutating shared specs.
func (m *Machine) Clone() *Machine {
	out := &Machine{
		Name:          m.Name,
		Partitions:    make(map[string]*Partition, len(m.Partitions)),
		FileSystemBW:  make(map[string]units.ByteRate, len(m.FileSystemBW)),
		BurstBufferBW: m.BurstBufferBW,
		ExternalBW:    m.ExternalBW,
	}
	for k, p := range m.Partitions {
		cp := *p
		if p.NUMA != nil {
			n := *p.NUMA
			cp.NUMA = &n
		}
		out.Partitions[k] = &cp
	}
	for k, v := range m.FileSystemBW {
		out.FileSystemBW[k] = v
	}
	if m.BisectionBW != nil {
		out.BisectionBW = make(map[string]units.ByteRate, len(m.BisectionBW))
		for k, v := range m.BisectionBW {
			out.BisectionBW[k] = v
		}
	}
	return out
}

// Built-in partition names used by the paper's case studies.
const (
	PartGPU     = "gpu"
	PartCPU     = "cpu"
	PartHaswell = "haswell"
)

// Perlmutter returns the NERSC Perlmutter spec with the peaks from the
// paper's appendix:
//
//	GPU partition: 1792 nodes, 4xA100 per node -> 38.8 TFLOPS, 4x1555 GB/s
//	HBM, 4x25 GB/s PCIe, 4 NICs -> 100 GB/s injection; 5.6 TB/s file system.
//	CPU partition: 3072 nodes, 2xMilan -> 5 TFLOPS, 2x204.8 GB/s DRAM,
//	25 GB/s NIC; 4.8 TB/s file system.
//	External (DTN) bandwidth: 25 GB/s.
func Perlmutter() *Machine {
	return &Machine{
		Name: "Perlmutter",
		Partitions: map[string]*Partition{
			PartGPU: {
				Name:         PartGPU,
				Nodes:        1792,
				CoresPerNode: 64,
				GPUsPerNode:  4,
				NodeFlops:    4 * 9.7 * units.TFLOPS,
				NodeMemBW:    4 * 1555 * units.GBPS,
				NodePCIeBW:   4 * 25 * units.GBPS,
				NodeNICBW:    100 * units.GBPS,
			},
			PartCPU: {
				Name:         PartCPU,
				Nodes:        3072,
				CoresPerNode: 128,
				NodeFlops:    5 * units.TFLOPS,
				NodeMemBW:    2 * 204.8 * units.GBPS,
				NodeNICBW:    25 * units.GBPS,
			},
		},
		FileSystemBW: map[string]units.ByteRate{
			PartGPU: 5.6 * units.TBPS,
			PartCPU: 4.8 * units.TBPS,
		},
		ExternalBW: 25 * units.GBPS,
	}
}

// CoriHaswell returns the (now retired) Cori Haswell spec used by the LCLS
// case study: 2388 nodes, 32 cores and 129 GB/s DRAM per node, a 910 GB/s
// burst buffer (140 BB nodes x 6.5 GB/s), and a 1 GB/s average external
// path on "good days".
func CoriHaswell() *Machine {
	return &Machine{
		Name: "Cori",
		Partitions: map[string]*Partition{
			PartHaswell: {
				Name:         PartHaswell,
				Nodes:        2388,
				CoresPerNode: 32,
				NodeFlops:    1.2 * units.TFLOPS,
				NodeMemBW:    129 * units.GBPS,
				NodeNICBW:    8 * units.GBPS,
			},
		},
		FileSystemBW:  map[string]units.ByteRate{},
		BurstBufferBW: 910 * units.GBPS,
		ExternalBW:    1 * units.GBPS,
	}
}

// PerlmutterNUMA returns the Perlmutter spec with the socket topology made
// explicit. The CPU partition's 2 x 204.8 GB/s DRAM becomes two NUMA
// domains joined by a 64 GB/s xGMI-class fabric with 15% of traffic going
// remote; the GPU partition's 4 x 1555 GB/s HBM becomes four domains joined
// by NVLink (600 GB/s) with 10% remote traffic. The flat aggregates are
// unchanged — only the effective memory bandwidth drops, which is the point:
// the same workflow gets a lower memory ceiling here than on Perlmutter().
func PerlmutterNUMA() *Machine {
	m := Perlmutter()
	m.Name = "Perlmutter-NUMA"
	m.Partitions[PartCPU].NUMA = &NUMA{
		Sockets:        2,
		SocketMemBW:    204.8 * units.GBPS,
		InterSocketBW:  64 * units.GBPS,
		RemoteFraction: 0.15,
	}
	m.Partitions[PartGPU].NUMA = &NUMA{
		Sockets:        4,
		SocketMemBW:    1555 * units.GBPS,
		InterSocketBW:  600 * units.GBPS,
		RemoteFraction: 0.10,
	}
	return m
}

// Ridgeline returns a dragonfly-class system characterized Ridgeline-style,
// with the network split into two distinct ceilings: per-node injection
// (25 GB/s NICs, 51.2 TB/s aggregate across 2048 nodes) and a 2:1-tapered
// fabric whose bisection sustains only 12.8 TB/s. Workflows that keep
// traffic local see the injection ceiling; all-to-all traffic at scale hits
// the bisection first.
func Ridgeline() *Machine {
	return &Machine{
		Name: "Ridgeline",
		Partitions: map[string]*Partition{
			PartCPU: {
				Name:         PartCPU,
				Nodes:        2048,
				CoresPerNode: 64,
				NodeFlops:    3 * units.TFLOPS,
				NodeMemBW:    300 * units.GBPS,
				NodeNICBW:    25 * units.GBPS,
			},
		},
		FileSystemBW: map[string]units.ByteRate{
			PartCPU: 2 * units.TBPS,
		},
		BisectionBW: map[string]units.ByteRate{
			PartCPU: 12.8 * units.TBPS,
		},
		ExternalBW: 10 * units.GBPS,
	}
}

// builtins maps the canonical machine names shared by the CLIs, the study
// specs, and the wfserved endpoints to constructors.
var builtins = map[string]func() *Machine{
	"perlmutter":      Perlmutter,
	"perlmutter-numa": PerlmutterNUMA,
	"cori":            CoriHaswell,
	"ridgeline":       Ridgeline,
}

// Names lists the built-in machine names in sorted order.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh instance of the named built-in machine. The empty
// name defaults to Perlmutter, matching the historical behaviour of every
// spec surface that takes an optional machine field.
func ByName(name string) (*Machine, error) {
	if name == "" {
		return Perlmutter(), nil
	}
	build, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("machine: unknown machine %q (have %v)", name, Names())
	}
	return build(), nil
}

// WithExternalBW returns a clone with the external bandwidth replaced; it is
// the standard way to express contention scenarios like LCLS "bad days"
// (1 GB/s -> 0.2 GB/s) or the PM-CPU 5x degradation (25 -> 5 GB/s).
func (m *Machine) WithExternalBW(bw units.ByteRate) *Machine {
	c := m.Clone()
	c.ExternalBW = bw
	return c
}
