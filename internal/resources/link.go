// Package resources provides shared-resource models for the workflow
// simulator: bandwidth links with max-min fair sharing among concurrent
// flows (file system, external/DTN, network fabric) and counting node pools
// (compute allocation). Both are built on the discrete-event engine.
package resources

import (
	"fmt"
	"math"

	"wroofline/internal/engine"
)

// flow is one in-flight transfer on a Link, tracked in virtual-work time:
// it completes when the link's work clock reaches vfinish (see Link.vnow).
type flow struct {
	vfinish float64 // link work-clock value at which the flow completes
	seq     uint64  // admission order, breaks vfinish ties deterministically
	start   float64 // virtual (wall) time the flow was admitted
	done    func(start, end float64)
}

// Link is a shared bandwidth resource. Concurrent flows divide the capacity
// by max-min fair share: each flow receives min(PerFlowCap, capacity/n).
// When some flows are capped below the equal share, the surplus is
// redistributed to the others (classic water-filling; with homogeneous caps
// this reduces to the min above).
//
// Because every active flow always receives the identical rate, the whole
// link is a single rate bucket: instead of updating each flow's remaining
// bytes on every event (O(flows) per event, O(flows²) per busy period), the
// link integrates one shared work clock vnow at the common per-flow rate. A
// flow admitted with B bytes completes when vnow advances past its admission
// value plus B, so a rate change (arrival or completion) is an
// O(1) epoch update plus one in-place re-arm of the link's single "next
// completion" event (engine.Reschedule).
// Completions pop from a per-link min-heap keyed by vfinish.
//
// A Link models the paper's shared system resources: the parallel file
// system (5.6 TB/s aggregate), the external/DTN path (per-flow 1 GB/s on
// LCLS "good days", 0.2 GB/s on "bad days"), or a fabric.
type Link struct {
	// Name labels the link in errors and traces.
	Name string

	eng        *engine.Engine
	capacity   float64
	perFlowCap float64

	rate       float64 // current common per-flow rate (bytes/s), 0 when idle
	vnow       float64 // work clock: bytes delivered per flow this busy period
	lastSettle float64 // virtual time vnow was last advanced to
	seq        uint64

	heap []*flow // min-heap by (vfinish, seq)
	next *engine.Event
	// onNext is the single completion callback, allocated once so arming the
	// next-completion event never allocates a closure.
	onNext func()
	// scratch carries completed flows out of the heap before their done
	// callbacks run (which may reentrantly Transfer); reused across events.
	scratch []*flow
	free    []*flow
}

// maxFlowFree bounds the per-link flow free list.
const maxFlowFree = 4096

// NewLink creates a link with aggregate capacity (bytes/s) and an optional
// per-flow rate cap (0 = uncapped).
func NewLink(eng *engine.Engine, name string, capacity, perFlowCap float64) (*Link, error) {
	if eng == nil {
		return nil, fmt.Errorf("resources: link %q needs an engine", name)
	}
	if err := CheckLink(name, capacity, perFlowCap); err != nil {
		return nil, err
	}
	l := &Link{
		Name:       name,
		eng:        eng,
		capacity:   capacity,
		perFlowCap: perFlowCap,
	}
	l.onNext = func() {
		l.next = nil
		l.advance()
		l.reschedule()
	}
	return l, nil
}

// CheckLink reports the error NewLink and Reset return for these link
// parameters, or nil when they are valid.
func CheckLink(name string, capacity, perFlowCap float64) error {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("resources: link %q needs positive finite capacity, got %v", name, capacity)
	}
	if perFlowCap < 0 || math.IsNaN(perFlowCap) {
		return fmt.Errorf("resources: link %q has invalid per-flow cap %v", name, perFlowCap)
	}
	return nil
}

// Reset restores the link to an idle state with new parameters, for reuse
// across pooled simulation trials. The flow free list, heap, and scratch
// capacity are retained. It must only be called alongside an engine Reset
// (or on a drained link): any still-armed completion event is forgotten, not
// cancelled, because the engine reset may already have recycled it.
func (l *Link) Reset(capacity, perFlowCap float64) error {
	if err := CheckLink(l.Name, capacity, perFlowCap); err != nil {
		return err
	}
	for _, f := range l.heap {
		l.recycle(f)
	}
	for i := range l.heap {
		l.heap[i] = nil
	}
	l.heap = l.heap[:0]
	l.capacity = capacity
	l.perFlowCap = perFlowCap
	l.rate = 0
	l.vnow = 0
	l.lastSettle = 0
	l.seq = 0
	l.next = nil
	return nil
}

// Capacity returns the aggregate capacity in bytes/s.
func (l *Link) Capacity() float64 { return l.capacity }

// Transfer starts moving bytes across the link. done is invoked (with the
// flow's start and end virtual times) when the transfer completes. A
// zero-byte transfer completes immediately.
func (l *Link) Transfer(bytes float64, done func(start, end float64)) error {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		return fmt.Errorf("resources: link %q: invalid transfer size %v", l.Name, bytes)
	}
	now := l.eng.Now()
	if bytes == 0 {
		if done != nil {
			done(now, now)
		}
		return nil
	}
	l.advance()
	f := l.newFlow()
	f.vfinish = l.vnow + bytes
	f.seq = l.seq
	f.start = now
	f.done = done
	l.seq++
	l.heapPush(f)
	l.reschedule()
	return nil
}

// advance integrates the work clock from the last settle point to now at the
// current common per-flow rate.
func (l *Link) advance() {
	now := l.eng.Now()
	if dt := now - l.lastSettle; dt > 0 && len(l.heap) > 0 {
		l.vnow += l.rate * dt
	}
	l.lastSettle = now
}

// flowReady reports whether a flow is complete within tolerance. The
// tolerance is a nanosecond of transfer at the common rate: virtual
// timestamps only carry ~1 ulp of precision, so after settling at a large
// clock value a few bytes of rounding error can remain — without the
// rate-relative term the link would reschedule completions at sub-ulp
// deltas forever.
func (l *Link) flowReady(f *flow) bool {
	rem := f.vfinish - l.vnow
	return rem <= 1e-9 || rem <= l.rate*1e-9
}

// shareRate returns the per-flow max-min rate for n flows.
func (l *Link) shareRate(n int) float64 {
	if n == 0 {
		return 0
	}
	r := l.capacity / float64(n)
	if l.perFlowCap > 0 && l.perFlowCap < r {
		r = l.perFlowCap
	}
	return r
}

// reschedule recomputes the common rate, fires any completions already
// within tolerance, and arms or re-arms the single next-completion event.
func (l *Link) reschedule() {
	// Complete flows already within tolerance at the rate they would
	// receive, so a completion event that lands on the same timestamp (after
	// float rounding) cannot loop. Each batch of completions changes n and
	// therefore the rate, which may pull more flows inside tolerance.
	for {
		n := len(l.heap)
		if n == 0 {
			if l.next != nil {
				l.next.Cancel()
				l.next = nil
			}
			// Idle: reset the work clock so its magnitude is bounded by one
			// busy period's bytes, keeping vfinish arithmetic well away from
			// the float64 precision cliff on long simulations.
			l.rate = 0
			l.vnow = 0
			return
		}
		l.rate = l.shareRate(n)
		if !l.completeReady() {
			break
		}
	}
	delay := (l.heap[0].vfinish - l.vnow) / l.rate
	if delay < 0 {
		delay = 0
	}
	// Re-arm the pending completion in place when there is one (a done
	// callback above may have reentrantly Transferred and armed it): the
	// engine gives it a fresh sequence number, exactly as cancelling it and
	// scheduling anew would, without leaving a cancelled event queued.
	var err error
	if l.next != nil {
		err = l.eng.Reschedule(l.next, delay)
	} else {
		l.next, err = l.eng.Schedule(delay, l.onNext)
	}
	if err != nil {
		// Scheduling forward from now with a non-negative delay cannot fail;
		// a failure here means the engine clock is corrupt.
		panic(fmt.Sprintf("resources: link %q: %v", l.Name, err))
	}
}

// completeReady pops and fires every flow within tolerance at the current
// rate. It returns whether any flow completed. Completed flows are moved to
// the scratch slice first: done callbacks may reentrantly call Transfer or
// reschedule, so the heap must be consistent before the first callback runs.
func (l *Link) completeReady() bool {
	if !l.flowReady(l.heap[0]) {
		return false
	}
	// Check the scratch slice out of the link for the duration of the batch;
	// a reentrant completion underneath a done callback allocates its own.
	batch := l.scratch[:0]
	l.scratch = nil
	for len(l.heap) > 0 && l.flowReady(l.heap[0]) {
		batch = append(batch, l.heapPop())
	}
	now := l.eng.Now()
	for i, f := range batch {
		done, start := f.done, f.start
		l.recycle(f)
		batch[i] = nil
		if done != nil {
			done(start, now)
		}
	}
	l.scratch = batch[:0]
	return true
}

func flowLess(a, b *flow) bool {
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	return a.seq < b.seq
}

func (l *Link) heapPush(f *flow) {
	l.heap = append(l.heap, f)
	i := len(l.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !flowLess(l.heap[i], l.heap[p]) {
			break
		}
		l.heap[i], l.heap[p] = l.heap[p], l.heap[i]
		i = p
	}
}

func (l *Link) heapPop() *flow {
	h := l.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	l.heap = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && flowLess(h[c+1], h[c]) {
			c++
		}
		if !flowLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

func (l *Link) newFlow() *flow {
	if n := len(l.free); n > 0 {
		f := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return f
	}
	return &flow{}
}

func (l *Link) recycle(f *flow) {
	f.done = nil
	if len(l.free) < maxFlowFree {
		l.free = append(l.free, f)
	}
}
