// Package engine is a minimal discrete-event simulation kernel: a virtual
// clock and a priority queue of scheduled callbacks. Resources (shared
// bandwidth links, node pools) and the workflow simulator are built on top
// of it in internal/resources and internal/sim.
//
// The engine is single-threaded by design: discrete-event simulation needs a
// total order over events, and callback execution is the ordering point.
// Determinism is guaranteed by breaking time ties with a monotonically
// increasing sequence number.
//
// The queue is a binary min-heap ordered by (time, seq). Because that key is
// a strict total order, any correct heap pops events in the same order.
//
// The kernel is built for steady-state zero allocation: fired and cancelled
// events return to a free list and are reused by later Schedule/At calls,
// and cancellation is lazy — a cancelled event stays in the heap until it
// is popped or until cancelled events outnumber live ones, at which point
// the heap is compacted in one pass. A holder that re-arms one pending
// event over and over (a link's next completion) uses Reschedule, which
// moves the event in place and leaves no cancelled event behind.
package engine

import (
	"fmt"
	"math"
)

// Event is a scheduled callback. It can be cancelled until it fires.
//
// Events are recycled: once an event has fired (or been cancelled and
// drained) the engine may hand the same *Event back out from a later
// Schedule/At call. Holders must therefore drop their reference when the
// callback runs or when they cancel the event, and must not call Cancel or
// Reschedule on an event that has already fired. Cancel on an already-popped
// event is a no-op, so the common "cancel the pending completion, if any"
// pattern stays safe as long as the callback clears the holder's pointer
// first.
type Event struct {
	time     float64
	seq      uint64
	index    int // heap index, -1 once removed
	fn       func()
	canceled bool
	owner    *Engine
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-drained, or already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e.canceled || e.index < 0 {
		return
	}
	e.canceled = true
	if e.owner != nil {
		e.owner.canceledLive++
		e.owner.maybeCompact()
	}
}

// before orders events by (time, seq).
func before(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// compactMin is the queue size below which lazy deletion is left alone:
// compacting tiny heaps buys nothing and the drain loops handle the corpses.
const compactMin = 64

// maxFree bounds the event free list; beyond it, drained events are left to
// the garbage collector. The bound only matters after a burst far above the
// steady-state pending count.
const maxFree = 8192

// Engine is the simulation kernel. The zero value is not usable; create
// engines with New.
type Engine struct {
	now    float64
	seq    uint64
	events []*Event // binary min-heap by (time, seq)
	// canceledLive counts cancelled events still sitting in the heap.
	canceledLive int
	// free is the recycled-event stack (see Event).
	free []*Event
	// processed counts fired events, a cheap runaway-simulation guard.
	processed uint64
	// MaxEvents aborts Run after this many fired events (0 = no limit).
	MaxEvents uint64
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Reset returns the engine to time zero with an empty queue, dropping any
// still-queued events. The event free list and heap capacity are retained,
// so a pooled engine's steady state allocates nothing across runs.
func (e *Engine) Reset() {
	for _, ev := range e.events {
		ev.index = -1
		e.release(ev)
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.canceledLive = 0
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// alloc takes an event from the free list (or the heap's allocator) and
// initializes it.
func (e *Engine) alloc(t float64, fn func()) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.time = t
		ev.fn = fn
		ev.canceled = false
	} else {
		ev = &Event{time: t, fn: fn}
	}
	ev.seq = e.seq
	ev.owner = e
	e.seq++
	return ev
}

// release puts a popped event on the free list. The callback reference is
// dropped immediately so cancelled closures do not outlive their event.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
}

// up moves the event at heap index i toward the root until its parent is
// earlier.
func (e *Engine) up(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down moves the event at heap index i toward the leaves until both
// children are later, and reports whether it moved.
func (e *Engine) down(i int) bool {
	h := e.events
	n := len(h)
	ev := h[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > start
}

// push queues ev.
func (e *Engine) push(ev *Event) {
	e.events = append(e.events, ev)
	e.up(len(e.events) - 1)
}

// pop removes and returns the earliest queued event (cancelled or not).
func (e *Engine) pop() *Event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.down(0)
	}
	top.index = -1
	return top
}

// maybeCompact rebuilds the heap without the cancelled events once they
// outnumber the live ones, keeping Step drains O(live).
func (e *Engine) maybeCompact() {
	if len(e.events) < compactMin || e.canceledLive <= len(e.events)/2 {
		return
	}
	live := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			e.release(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = live
	e.canceledLive = 0
	for i, ev := range e.events {
		ev.index = i
	}
	for i := len(e.events)/2 - 1; i >= 0; i-- {
		e.down(i)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is an error.
func (e *Engine) At(t float64, fn func()) (*Event, error) {
	if math.IsNaN(t) {
		return nil, fmt.Errorf("engine: schedule at NaN")
	}
	if t < e.now {
		return nil, fmt.Errorf("engine: schedule at %v before now %v", t, e.now)
	}
	if fn == nil {
		return nil, fmt.Errorf("engine: nil callback")
	}
	ev := e.alloc(t, fn)
	e.push(ev)
	return ev, nil
}

// checkDelay reports the error for scheduling delay seconds from now.
func checkDelay(delay float64) error {
	if delay < 0 || math.IsNaN(delay) {
		return fmt.Errorf("engine: negative or NaN delay %v", delay)
	}
	return nil
}

// Schedule schedules fn to run delay seconds from now. Negative delays are
// errors; +Inf delays are accepted and never fire (useful for "no next
// completion" placeholders that will be cancelled).
func (e *Engine) Schedule(delay float64, fn func()) (*Event, error) {
	if err := checkDelay(delay); err != nil {
		return nil, err
	}
	return e.At(e.now+delay, fn)
}

// Reschedule moves a queued event to fire delay seconds from now. It is
// Cancel followed by Schedule of the same callback, done in place: the
// event takes a fresh sequence number, so it fires after every event
// already queued for the same time, exactly as a newly scheduled one would,
// and no cancelled event is left in the queue. The delay rules are
// Schedule's. Rescheduling an event that is not queued — it fired, was
// cancelled, or was drained — is an error, and the event is left as it was.
func (e *Engine) Reschedule(ev *Event, delay float64) error {
	if err := checkDelay(delay); err != nil {
		return err
	}
	if ev == nil || ev.owner != e || ev.index < 0 || ev.canceled {
		return fmt.Errorf("engine: reschedule of an event that is not queued")
	}
	ev.time = e.now + delay
	ev.seq = e.seq
	e.seq++
	if !e.down(ev.index) {
		e.up(ev.index)
	}
	return nil
}

// Step fires the earliest pending non-cancelled event and returns true, or
// returns false when the queue is empty. Events scheduled at +Inf are never
// fired; they terminate the run as if the queue were empty.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.canceled {
			e.canceledLive--
			e.release(ev)
			continue
		}
		if math.IsInf(ev.time, 1) {
			// Nothing real left to simulate. The placeholder is consumed
			// but not recycled: its holder may still Cancel it later.
			return false
		}
		e.now = ev.time
		e.processed++
		ev.fn()
		e.release(ev)
		return true
	}
	return false
}

// Run fires events until the queue is empty (or only +Inf/cancelled events
// remain). It returns an error if MaxEvents is exceeded, which almost
// always indicates a scheduling loop in the model.
func (e *Engine) Run() error {
	for e.Step() {
		if e.MaxEvents > 0 && e.processed > e.MaxEvents {
			return fmt.Errorf("engine: exceeded %d events at t=%v; likely a scheduling loop", e.MaxEvents, e.now)
		}
	}
	return nil
}
