package resources

import (
	"fmt"
	"math"

	"wroofline/internal/engine"
)

// This file preserves the original per-flow settle/reschedule link
// implementation as an executable reference for the differential tests in
// link_diff_test.go. It is intentionally the naive O(flows) per event
// algorithm: every rate change walks all flows subtracting rate*dt from the
// remaining-bytes counters. The production Link in link.go must reproduce
// its completion times (within float tolerance) on arbitrary schedules.

// refFlow is one in-flight transfer on a refLink.
type refFlow struct {
	remaining float64 // bytes left
	rate      float64 // current bytes/s share
	done      func(start, end float64)
	start     float64
}

// refLink is the reference max-min fair shared link.
type refLink struct {
	name       string
	eng        *engine.Engine
	capacity   float64
	perFlowCap float64
	flows      map[*refFlow]struct{}
	next       *engine.Event
	lastSettle float64
}

func newRefLink(eng *engine.Engine, name string, capacity, perFlowCap float64) (*refLink, error) {
	if eng == nil {
		return nil, fmt.Errorf("resources: link %q needs an engine", name)
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("resources: link %q needs positive finite capacity, got %v", name, capacity)
	}
	if perFlowCap < 0 || math.IsNaN(perFlowCap) {
		return nil, fmt.Errorf("resources: link %q has invalid per-flow cap %v", name, perFlowCap)
	}
	return &refLink{
		name:       name,
		eng:        eng,
		capacity:   capacity,
		perFlowCap: perFlowCap,
		flows:      make(map[*refFlow]struct{}),
	}, nil
}

func (l *refLink) activeFlows() int { return len(l.flows) }

func (l *refLink) transfer(bytes float64, done func(start, end float64)) error {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		return fmt.Errorf("resources: link %q: invalid transfer size %v", l.name, bytes)
	}
	now := l.eng.Now()
	if bytes == 0 {
		if done != nil {
			done(now, now)
		}
		return nil
	}
	l.settle()
	f := &refFlow{remaining: bytes, done: done, start: now}
	l.flows[f] = struct{}{}
	l.reschedule()
	return nil
}

// settle applies progress at the current rates since the last settle point.
func (l *refLink) settle() {
	now := l.eng.Now()
	dt := now - l.lastSettle
	l.lastSettle = now
	if dt <= 0 || len(l.flows) == 0 {
		return
	}
	var finished []*refFlow
	for f := range l.flows {
		f.remaining -= f.rate * dt
		if l.flowDone(f) {
			f.remaining = 0
			finished = append(finished, f)
		}
	}
	for _, f := range finished {
		delete(l.flows, f)
		if f.done != nil {
			f.done(f.start, now)
		}
	}
}

func (l *refLink) flowDone(f *refFlow) bool {
	return f.remaining <= 1e-9 || f.remaining <= f.rate*1e-9
}

func (l *refLink) shareRate(n int) float64 {
	if n == 0 {
		return 0
	}
	r := l.capacity / float64(n)
	if l.perFlowCap > 0 && l.perFlowCap < r {
		r = l.perFlowCap
	}
	return r
}

func (l *refLink) reschedule() {
	if l.next != nil {
		l.next.Cancel()
		l.next = nil
	}
	for {
		n := len(l.flows)
		if n == 0 {
			return
		}
		rate := l.shareRate(n)
		var finished []*refFlow
		for f := range l.flows {
			f.rate = rate
			if l.flowDone(f) {
				finished = append(finished, f)
			}
		}
		if len(finished) == 0 {
			break
		}
		now := l.eng.Now()
		for _, f := range finished {
			f.remaining = 0
			delete(l.flows, f)
			if f.done != nil {
				f.done(f.start, now)
			}
		}
	}
	rate := l.shareRate(len(l.flows))
	soonest := math.Inf(1)
	for f := range l.flows {
		f.rate = rate
		if t := f.remaining / rate; t < soonest {
			soonest = t
		}
	}
	ev, err := l.eng.Schedule(soonest, func() {
		l.next = nil
		l.settle()
		l.reschedule()
	})
	if err != nil {
		panic(fmt.Sprintf("resources: link %q: %v", l.name, err))
	}
	l.next = ev
}

func (l *refLink) drain() bool { return len(l.flows) == 0 }
