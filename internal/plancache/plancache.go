// Package plancache is the second-level evaluation cache: a sharded,
// size-bounded, content-addressed LRU keyed by the SHA-256 of a canonical
// evaluation identity, holding the expensive *construction* artifacts —
// compiled sim.Plans, built core.Models, compiled corpus shapes, and the
// outcomes of corpus scenarios whose work does not depend on the seed
// (CV 0) — that the response cache above it cannot reuse. A CV > 0
// scenario's outcome is not cached: a fresh seed would never hit it, so it
// reuses only its family's shape.
//
// The serve tier's response cache (internal/serve) only helps when the
// request bytes recur exactly: a sweep that differs only in seed, trial
// count, batch, or snapshot cadence misses it and pays the full
// generate → build → compile pipeline again. But since compiled plans are
// immutable and safe for concurrent Run calls, and model analysis is
// read-only, the construction half of every evaluation is shareable across
// requests whose *evaluation identity* — workflow source, machine, failure
// configuration — matches. This package holds that identity → artifact map;
// internal/study consults it inside the evaluation (below admission and the
// response cache) so requests varying only per-trial knobs skip generation,
// build, and compile entirely.
//
// Correctness rests on the same determinism argument as the response cache:
// equal keys imply equal construction inputs, construction is a pure
// function of those inputs, and the cached artifacts are immutable — so a
// cache-hit evaluation is bit-identical to a fresh-compile one at any
// worker x batch geometry. The differential walls in internal/study and
// internal/serve prove it under -race.
package plancache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"wroofline/internal/cas"
	"wroofline/internal/wfgen"
)

// Key is a content address: the SHA-256 of an artifact kind plus the
// canonical evaluation identity.
type Key = cas.Key

// Scenario is one generated corpus scenario's construction output: the
// workflow metadata and derived figures the corpus tables consume. It is
// immutable after insertion.
type Scenario struct {
	// Tasks is the generated workflow's task count.
	Tasks int
	// BoundTPS and Limiting are the roofline bound at the wall and the
	// resource that binds it.
	BoundTPS float64
	Limiting string
	// Makespan is the contention-free simulated makespan.
	Makespan float64
}

// keyPool recycles the concatenation buffer behind the key constructors so
// steady-state key hashing does not allocate.
var keyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// finish hashes the assembled identity bytes and returns the buffer to the
// pool.
func finish(bp *[]byte, b []byte) Key {
	k := Key(sha256.Sum256(b))
	*bp = b[:0]
	keyPool.Put(bp)
	return k
}

// CaseKey addresses the compiled plan of a built-in case study. The case
// name alone is the evaluation identity: workloads.ByName constructs the
// same workflow, machine, and simulation configuration (including any
// baked-in failure model) for a given name every time, so one entry serves
// every trials/seed/workers/batch variation over that case.
func CaseKey(name string) Key {
	bp := keyPool.Get().(*[]byte)
	b := append((*bp)[:0], "case\x00"...)
	b = append(b, name...)
	return finish(bp, b)
}

// ScenarioKey addresses one generated corpus scenario on a machine. The
// identity is the resolved machine name plus every field of the
// *normalized* generator spec, so written specs that differ only by
// spelled-out defaults share an entry.
//
// When CV == 0 the seed is normalized away: the generator provably never
// consults its random stream for constant-variation work (builder.factor
// returns 1 without a draw), so every seed generates the same tasks, edges,
// and volumes. The one seed-dependent output is the workflow's display
// name ("gen-<family>-w<w>-d<d>-s<seed>"), which no corpus table reads —
// scenario aggregation keys on family, not name. This is what lets
// seed-rotated corpus requests (the seed-vary mix) hit ~100%. With CV > 0
// the seed stays in the key; the corpus study does not cache those
// outcomes at all, since a fresh seed never hits them.
//
// The identity bytes are written by hand into the pooled buffer: strings
// length-prefixed, integers as varints, CV as its float bits. Every field
// is self-delimiting, so distinct identities never share bytes, and the
// key costs one SHA-256 and no allocation.
func ScenarioKey(spec *wfgen.Spec, machineName string) Key {
	n := spec.Normalized()
	if n.CV <= 0 {
		n.Seed = 0
	}
	if n.CV == 0 {
		n.CV = 0 // one spelling of zero: -0 generates what 0 does
	}
	bp := keyPool.Get().(*[]byte)
	b := append((*bp)[:0], "scenario\x00"...)
	b = appendString(b, machineName)
	b = appendString(b, n.Family)
	b = binary.AppendUvarint(b, n.Seed)
	b = binary.AppendVarint(b, int64(n.Width))
	b = binary.AppendVarint(b, int64(n.Depth))
	b = appendString(b, n.Partition)
	b = binary.AppendVarint(b, int64(n.NodesPerTask))
	b = appendString(b, n.Flops)
	b = appendString(b, n.Mem)
	b = appendString(b, n.Net)
	b = appendString(b, n.FS)
	b = appendString(b, n.Payload)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.CV))
	return finish(bp, b)
}

// ShapeKey addresses the compiled corpus shape of a generator spec on a
// machine: the wfgen topology plus the simulator's work-free plan half
// (sim.Shape). The identity is the resolved machine name plus the fields of
// the normalized spec that either half reads — family, width, depth,
// partition and nodes per task. Seed, CV and the work and payload volumes
// only change the work a scenario draws onto the shape, so they stay out:
// every scenario of a template shares one entry.
func ShapeKey(spec *wfgen.Spec, machineName string) Key {
	n := spec.Normalized()
	bp := keyPool.Get().(*[]byte)
	b := append((*bp)[:0], "shape\x00"...)
	b = appendString(b, machineName)
	b = appendString(b, n.Family)
	b = binary.AppendVarint(b, int64(n.Width))
	b = binary.AppendVarint(b, int64(n.Depth))
	b = appendString(b, n.Partition)
	b = binary.AppendVarint(b, int64(n.NodesPerTask))
	return finish(bp, b)
}

// appendString appends s with a uvarint length prefix, so no content —
// separators and length bytes included — can straddle a field boundary.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ModelKey addresses a built core.Model for an inline workflow: the
// resolved machine name, the canonical external-bandwidth override (empty
// when absent), and the compacted workflow JSON. Analysis over the model
// (Analyze, Bound, BoundAtWall) is read-only, so one built model serves any
// operating-point or curve-sample variation.
func ModelKey(machineName, externalBW string, workflowJSON []byte) Key {
	bp := keyPool.Get().(*[]byte)
	b := append((*bp)[:0], "model\x00"...)
	b = append(b, machineName...)
	b = append(b, 0)
	b = append(b, externalBW...)
	b = append(b, 0)
	b = append(b, workflowJSON...)
	return finish(bp, b)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Entries and Capacity describe occupancy.
	Entries  int
	Capacity int
	// Hits, Misses, and Evictions are cumulative since construction.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Cache is the sharded LRU (a cas.LRU) plus its counters. All methods are
// safe for concurrent use and safe on a nil receiver — a nil *Cache is the
// disabled cache (every Get misses without counting, every Put is dropped),
// so call sites thread one pointer through unconditionally.
type Cache struct {
	lru *cas.LRU[any]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New creates a cache holding up to entries values in total (minimum 1),
// split across up to shards shards (see cas.NewLRU for the normalization).
func New(entries, shards int) *Cache {
	return &Cache{lru: cas.NewLRU[any](entries, shards)}
}

// Get returns the cached artifact and marks it most recently used. A nil
// receiver always misses (and counts nothing).
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.lru.Get(k)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return v, true
}

// Put stores an artifact, evicting the shard's least recently used entry
// when the shard is full. Storing an existing key refreshes its recency and
// keeps the incumbent value (equal keys address equal artifacts). A nil
// receiver drops the value.
func (c *Cache) Put(k Key, v any) {
	if c == nil {
		return
	}
	if n := c.lru.Put(k, v); n > 0 {
		c.evictions.Add(uint64(n))
	}
}

// Len reports the number of cached artifacts across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.lru.Len()
}

// Capacity reports the configured total capacity across shards.
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.lru.Capacity()
}

// Stats snapshots the counters. A nil receiver reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Entries:   c.Len(),
		Capacity:  c.Capacity(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
