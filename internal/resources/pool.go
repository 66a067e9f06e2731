package resources

import (
	"fmt"

	"wroofline/internal/engine"
)

// request is a queued node acquisition.
type request struct {
	n       int
	granted func()
}

// Pool is a counting resource of compute nodes with FIFO granting. It
// models a partition (or job queue allocation): tasks acquire their node
// count, run, and release. The system parallelism wall emerges naturally:
// at most floor(total/nodesPerTask) equal-size tasks hold nodes at once.
type Pool struct {
	// Name labels the pool.
	Name string

	eng   *engine.Engine
	total int
	free  int
	// queue[head:] are the waiting requests. Granting advances head; the
	// slice is reset when it drains and compacted when an append would
	// otherwise grow it, so a steady acquire/release cycle reuses one array.
	queue []request
	head  int
	// peakInUse tracks the high-water mark of allocated nodes.
	peakInUse int
	// down counts nodes out of service (failure models); downPending counts
	// nodes marked for removal that are still held by running tasks — they
	// go down as releases come in.
	down        int
	downPending int
}

// NewPool creates a pool of total nodes.
func NewPool(eng *engine.Engine, name string, total int) (*Pool, error) {
	if eng == nil {
		return nil, fmt.Errorf("resources: pool %q needs an engine", name)
	}
	if total <= 0 {
		return nil, fmt.Errorf("resources: pool %q needs positive capacity, got %d", name, total)
	}
	return &Pool{Name: name, eng: eng, total: total, free: total}, nil
}

// Reset restores the pool to an idle state with a (possibly new) capacity,
// for reuse across pooled simulation trials. Queue capacity is retained.
func (p *Pool) Reset(total int) error {
	if total <= 0 {
		return fmt.Errorf("resources: pool %q needs positive capacity, got %d", p.Name, total)
	}
	p.total = total
	p.free = total
	clear(p.queue[:cap(p.queue)])
	p.queue = p.queue[:0]
	p.head = 0
	p.peakInUse = 0
	p.down = 0
	p.downPending = 0
	return nil
}

// Total returns the pool size.
func (p *Pool) Total() int { return p.total }

// Free returns the currently idle node count.
func (p *Pool) Free() int { return p.free }

// InUse returns the currently allocated node count (nodes pending removal
// are still held by tasks, so they count as in use until released).
func (p *Pool) InUse() int { return p.total - p.free - p.down }

// Down returns the number of nodes currently out of service.
func (p *Pool) Down() int { return p.down + p.downPending }

// PeakInUse returns the allocation high-water mark.
func (p *Pool) PeakInUse() int { return p.peakInUse }

// QueueLength returns the number of waiting requests.
func (p *Pool) QueueLength() int { return len(p.queue) - p.head }

// Acquire requests n nodes; granted runs (synchronously, at the current
// virtual time) once they are allocated. Grants are strictly FIFO: a large
// request at the head blocks smaller ones behind it (no backfill).
func (p *Pool) Acquire(n int, granted func()) error {
	if n <= 0 {
		return fmt.Errorf("resources: pool %q: acquire %d nodes", p.Name, n)
	}
	if n > p.total {
		return fmt.Errorf("resources: pool %q: request for %d nodes exceeds capacity %d", p.Name, n, p.total)
	}
	if granted == nil {
		return fmt.Errorf("resources: pool %q: nil grant callback", p.Name)
	}
	if p.head == len(p.queue) && n <= p.free {
		// Nothing is waiting and the nodes are free: grant at once, the
		// outcome the FIFO queue would reach.
		p.take(n)
		granted()
		return nil
	}
	if len(p.queue) == cap(p.queue) && p.head > 0 {
		k := copy(p.queue, p.queue[p.head:])
		clear(p.queue[k:])
		p.queue = p.queue[:k]
		p.head = 0
	}
	p.queue = append(p.queue, request{n: n, granted: granted})
	p.dispatch()
	return nil
}

// Release returns n nodes to the pool and dispatches waiters. Nodes pending
// removal (Offline during use) go out of service instead of back to free.
func (p *Pool) Release(n int) error {
	if n <= 0 {
		return fmt.Errorf("resources: pool %q: release %d nodes", p.Name, n)
	}
	if p.free+p.down+n > p.total {
		return fmt.Errorf("resources: pool %q: release %d would exceed capacity (%d free of %d)",
			p.Name, n, p.free, p.total)
	}
	p.free += n
	if p.downPending > 0 {
		take := min(p.downPending, p.free)
		p.free -= take
		p.down += take
		p.downPending -= take
	}
	p.dispatch()
	return nil
}

// Offline takes n nodes out of service, modelling node failures. Idle nodes
// leave immediately; nodes held by running tasks are marked and leave as
// they are released (the failure model's task-kill probability covers work
// lost on a dying node — the pool itself only drains capacity).
func (p *Pool) Offline(n int) error {
	if n <= 0 {
		return fmt.Errorf("resources: pool %q: offline %d nodes", p.Name, n)
	}
	if p.down+p.downPending+n > p.total {
		return fmt.Errorf("resources: pool %q: offline %d would exceed capacity (%d already down of %d)",
			p.Name, n, p.down+p.downPending, p.total)
	}
	take := min(n, p.free)
	p.free -= take
	p.down += take
	p.downPending += n - take
	return nil
}

// Online returns n previously offlined nodes to service (repair completion)
// and dispatches waiters. Pending removals are cancelled first.
func (p *Pool) Online(n int) error {
	if n <= 0 {
		return fmt.Errorf("resources: pool %q: online %d nodes", p.Name, n)
	}
	if n > p.down+p.downPending {
		return fmt.Errorf("resources: pool %q: online %d but only %d are down",
			p.Name, n, p.down+p.downPending)
	}
	cancel := min(n, p.downPending)
	p.downPending -= cancel
	p.down -= n - cancel
	p.free += n - cancel
	p.dispatch()
	return nil
}

// dispatch grants requests from the queue head while they fit. A grant may
// re-enter Acquire or Release, so the queue position lives in p, not here.
func (p *Pool) dispatch() {
	for p.head < len(p.queue) && p.queue[p.head].n <= p.free {
		req := p.queue[p.head]
		p.queue[p.head] = request{}
		if p.head++; p.head == len(p.queue) {
			p.queue = p.queue[:0]
			p.head = 0
		}
		p.take(req.n)
		req.granted()
	}
}

// take allocates n free nodes and updates the high-water mark.
func (p *Pool) take(n int) {
	p.free -= n
	if inUse := p.total - p.free - p.down; inUse > p.peakInUse {
		p.peakInUse = inUse
	}
}
