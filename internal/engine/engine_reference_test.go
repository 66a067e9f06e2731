package engine

import (
	"container/heap"
	"fmt"
	"math"
)

// This file preserves the container/heap event queue the engine used before
// its typed heap and in-place Reschedule, as an executable reference for the
// differential tests in engine_diff_test.go. Its Reschedule is literally
// Cancel followed by Schedule of the same callback; the production engine
// must reproduce its firing order, times and errors on arbitrary operation
// sequences.

type refEvent struct {
	time     float64
	seq      uint64
	index    int
	fn       func()
	canceled bool
	owner    *refEngine
}

func (e *refEvent) cancel() {
	if e.canceled || e.index < 0 {
		return
	}
	e.canceled = true
	e.owner.canceledLive++
	e.owner.maybeCompact()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now          float64
	seq          uint64
	events       refHeap
	canceledLive int
	free         []*refEvent
	processed    uint64
	maxEvents    uint64
}

func (e *refEngine) reset() {
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

func (e *refEngine) alloc(t float64, fn func()) *refEvent {
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.time = t
		ev.fn = fn
		ev.canceled = false
	} else {
		ev = &refEvent{time: t, fn: fn}
	}
	ev.seq = e.seq
	ev.owner = e
	e.seq++
	return ev
}

func (e *refEngine) release(ev *refEvent) {
	ev.fn = nil
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
}

func (e *refEngine) maybeCompact() {
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
	heap.Init(&e.events)
}

func (e *refEngine) at(t float64, fn func()) (*refEvent, error) {
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
	heap.Push(&e.events, ev)
	return ev, nil
}

func (e *refEngine) schedule(delay float64, fn func()) (*refEvent, error) {
	if delay < 0 || math.IsNaN(delay) {
		return nil, fmt.Errorf("engine: negative or NaN delay %v", delay)
	}
	return e.at(e.now+delay, fn)
}

// reschedule is the reference meaning of Engine.Reschedule: cancel the
// queued event and schedule its callback afresh. The new event replaces the
// old one in the holder's hands.
func (e *refEngine) reschedule(ev *refEvent, delay float64) (*refEvent, error) {
	if delay < 0 || math.IsNaN(delay) {
		return nil, fmt.Errorf("engine: negative or NaN delay %v", delay)
	}
	if ev == nil || ev.owner != e || ev.index < 0 || ev.canceled {
		return nil, fmt.Errorf("engine: reschedule of an event that is not queued")
	}
	fn := ev.fn
	ev.cancel()
	return e.schedule(delay, fn)
}

func (e *refEngine) step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.canceled {
			e.canceledLive--
			e.release(ev)
			continue
		}
		if math.IsInf(ev.time, 1) {
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

func (e *refEngine) run() error {
	for e.step() {
		if e.maxEvents > 0 && e.processed > e.maxEvents {
			return fmt.Errorf("engine: exceeded %d events at t=%v; likely a scheduling loop", e.maxEvents, e.now)
		}
	}
	return nil
}
