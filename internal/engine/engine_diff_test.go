package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// queue is the operation surface the differential driver runs against both
// the production engine and the container/heap reference. Handles are the
// engines' own event pointers; reschedule returns the handle the holder
// keeps afterwards (the same event for the production engine, a new one for
// the reference).
type queue interface {
	now() float64
	at(t float64, fn func()) (any, error)
	schedule(d float64, fn func()) (any, error)
	cancel(h any)
	reschedule(h any, d float64) (any, error)
	step() bool
	run(maxEvents uint64) error
	reset()
	// live is the number of queued, uncancelled events.
	live() int
	// check reports a broken internal invariant, or nil.
	check() error
}

type prodQueue struct{ e *Engine }

func (q prodQueue) now() float64 { return q.e.Now() }
func (q prodQueue) at(t float64, fn func()) (any, error) {
	ev, err := q.e.At(t, fn)
	return ev, err
}
func (q prodQueue) schedule(d float64, fn func()) (any, error) {
	ev, err := q.e.Schedule(d, fn)
	return ev, err
}
func (q prodQueue) cancel(h any) { h.(*Event).Cancel() }
func (q prodQueue) reschedule(h any, d float64) (any, error) {
	ev, _ := h.(*Event)
	return h, q.e.Reschedule(ev, d)
}
func (q prodQueue) step() bool { return q.e.Step() }
func (q prodQueue) run(maxEvents uint64) error {
	q.e.MaxEvents = maxEvents
	return q.e.Run()
}
func (q prodQueue) reset() { q.e.Reset() }
func (q prodQueue) live() int {
	return len(q.e.events) - q.e.canceledLive
}

// check verifies the heap order and every queued event's back-index.
func (q prodQueue) check() error {
	canceled := 0
	for i, ev := range q.e.events {
		if ev.index != i {
			return fmt.Errorf("event at heap slot %d records index %d", i, ev.index)
		}
		if i > 0 && before(ev, q.e.events[(i-1)/2]) {
			return fmt.Errorf("heap order broken at slot %d", i)
		}
		if ev.canceled {
			canceled++
		}
	}
	if canceled != q.e.canceledLive {
		return fmt.Errorf("%d cancelled events queued, counter says %d", canceled, q.e.canceledLive)
	}
	return nil
}

type refQueue struct{ e *refEngine }

func (q refQueue) now() float64 { return q.e.now }
func (q refQueue) at(t float64, fn func()) (any, error) {
	ev, err := q.e.at(t, fn)
	return ev, err
}
func (q refQueue) schedule(d float64, fn func()) (any, error) {
	ev, err := q.e.schedule(d, fn)
	return ev, err
}
func (q refQueue) cancel(h any) { h.(*refEvent).cancel() }
func (q refQueue) reschedule(h any, d float64) (any, error) {
	ev, _ := h.(*refEvent)
	nev, err := q.e.reschedule(ev, d)
	if err != nil {
		return h, err
	}
	return nev, nil
}
func (q refQueue) step() bool { return q.e.step() }
func (q refQueue) run(maxEvents uint64) error {
	q.e.maxEvents = maxEvents
	return q.e.run()
}
func (q refQueue) reset()       { q.e.reset() }
func (q refQueue) live() int    { return len(q.e.events) - q.e.canceledLive }
func (q refQueue) check() error { return nil }

// opDelays are the delays (and At offsets) the driver draws: repeated
// values force time ties, and the tail holds the values Schedule rejects or
// never fires.
var opDelays = []float64{0, 0, 0.5, 1, 1, 1, 2.25, 3, 1e-9, 100, math.Inf(1), -1, math.NaN()}

// driver replays one operation program against a queue and records a trace
// of everything observable: firing order and times, step results, and every
// error. Callbacks consume the program too, so events schedule, cancel and
// reschedule others from inside the loop.
type driver struct {
	q      queue
	prog   []byte
	pos    int
	ids    []int // live event ids, in creation order
	handle map[int]any
	next   int
	trace  []string
	bad    error // first broken invariant
}

func (d *driver) read() int {
	if d.pos >= len(d.prog) {
		return 0
	}
	b := d.prog[d.pos]
	d.pos++
	return int(b)
}

func (d *driver) delay() float64 { return opDelays[d.read()%len(opDelays)] }

func (d *driver) logf(format string, args ...any) {
	d.trace = append(d.trace, fmt.Sprintf(format, args...))
}

// track records a new handle (or the error that prevented one).
func (d *driver) track(op string, h any, err error, id int) {
	if err != nil {
		d.logf("%s %d: %v", op, id, err)
		return
	}
	d.ids = append(d.ids, id)
	d.handle[id] = h
}

// drop forgets a live id: it fired or was cancelled, so its handle may be
// recycled and must not be touched again.
func (d *driver) drop(id int) {
	for i, v := range d.ids {
		if v == id {
			d.ids = append(d.ids[:i], d.ids[i+1:]...)
			break
		}
	}
	delete(d.handle, id)
}

// pick returns a live id chosen by the program, or -1 when none is live.
func (d *driver) pick() int {
	b := d.read()
	if len(d.ids) == 0 {
		return -1
	}
	return d.ids[b%len(d.ids)]
}

// callback builds event id's callback.
func (d *driver) callback(id int) func() {
	return func() {
		d.logf("fire %d @%x", id, d.q.now())
		h := d.handle[id]
		d.drop(id)
		if d.pos >= len(d.prog) {
			return
		}
		switch d.read() % 8 {
		case 4:
			d.scheduleNew()
		case 5:
			d.rescheduleOne()
		case 6:
			if v := d.pick(); v >= 0 {
				d.q.cancel(d.handle[v])
				d.drop(v)
			}
		case 7:
			// The firing event is no longer queued.
			_, err := d.q.reschedule(h, d.delay())
			d.logf("reschedule self %d: %v", id, err)
		}
	}
}

func (d *driver) scheduleNew() {
	id := d.next
	d.next++
	h, err := d.q.schedule(d.delay(), d.callback(id))
	d.track("schedule", h, err, id)
}

func (d *driver) rescheduleOne() {
	v := d.pick()
	if v < 0 {
		return
	}
	h, err := d.q.reschedule(d.handle[v], d.delay())
	if err != nil {
		d.logf("reschedule %d: %v", v, err)
		return
	}
	d.handle[v] = h
}

func (d *driver) exec() {
	for d.pos < len(d.prog) {
		switch op := d.read() % 11; op {
		case 0, 1:
			d.scheduleNew()
		case 2:
			id := d.next
			d.next++
			t := d.q.now() + d.delay()
			if d.read()%4 == 0 {
				t = d.q.now() - 1
			}
			h, err := d.q.at(t, d.callback(id))
			d.track("at", h, err, id)
		case 3:
			if v := d.pick(); v >= 0 {
				d.q.cancel(d.handle[v])
				d.drop(v)
			}
		case 4:
			// Cancel, then reschedule the cancelled event before anything
			// else can recycle it: a cancelled event is not queued.
			if v := d.pick(); v >= 0 {
				h := d.handle[v]
				d.q.cancel(h)
				d.drop(v)
				_, err := d.q.reschedule(h, d.delay())
				d.logf("reschedule cancelled %d: %v", v, err)
			}
		case 5:
			d.rescheduleOne()
		case 6:
			d.logf("step %v @%x", d.q.step(), d.q.now())
		case 7:
			err := d.q.run(uint64(d.read() % 24))
			d.logf("run: %v @%x", err, d.q.now())
		case 8:
			// A burst past compactMin, so cancellations can trigger
			// compaction.
			for i := 0; i < compactMin+8; i++ {
				d.scheduleNew()
			}
		case 9:
			keep := d.read()%5 + 2
			for _, v := range append([]int(nil), d.ids...) {
				if v%keep != 0 {
					d.q.cancel(d.handle[v])
					d.drop(v)
				}
			}
		case 10:
			d.q.reset()
			d.ids = d.ids[:0]
			clear(d.handle)
			d.logf("reset")
		}
		d.logf("live %d", d.q.live())
		if err := d.q.check(); err != nil && d.bad == nil {
			d.bad = err
		}
	}
	// Drain what is left so every queued event's fate is in the trace.
	err := d.q.run(0)
	d.logf("final run: %v @%x", err, d.q.now())
}

// diffEngines replays prog on both engines and returns the first
// difference, or nil when the traces match.
func diffEngines(prog []byte) error {
	prod := &driver{q: prodQueue{New()}, prog: prog, handle: map[int]any{}}
	ref := &driver{q: refQueue{&refEngine{}}, prog: prog, handle: map[int]any{}}
	prod.exec()
	ref.exec()
	if prod.bad != nil {
		return prod.bad
	}
	for i := 0; i < min(len(prod.trace), len(ref.trace)); i++ {
		if prod.trace[i] != ref.trace[i] {
			return fmt.Errorf("trace line %d: engine %q, reference %q", i, prod.trace[i], ref.trace[i])
		}
	}
	if len(prod.trace) != len(ref.trace) {
		return fmt.Errorf("trace length: engine %d, reference %d", len(prod.trace), len(ref.trace))
	}
	return nil
}

// TestEngineMatchesReference is the event-queue differential wall: random
// At/Schedule/Cancel/Reschedule/Step/Run/Reset programs, with callbacks
// that schedule, cancel and reschedule from inside the loop, must fire the
// same events at the same times and report the same errors (schedule,
// reschedule and MaxEvents) on the typed heap as on the container/heap
// reference, whose Reschedule is Cancel followed by Schedule.
func TestEngineMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 20+rng.Intn(400))
		rng.Read(prog)
		if err := diffEngines(prog); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func FuzzEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 5, 5, 1, 6, 6, 6})
	f.Add([]byte{8, 9, 3, 6, 5, 2, 4, 1, 7, 0})
	f.Add([]byte{8, 9, 0, 7, 5, 10, 8, 9, 1, 6})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			return
		}
		if err := diffEngines(prog); err != nil {
			t.Fatal(err)
		}
	})
}
