package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New()
	var order []int
	for i, d := range []float64{3, 1, 2} {
		i := i
		if _, err := e.Schedule(d, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
	if e.processed != 3 {
		t.Errorf("processed = %d, want 3", e.processed)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		if _, err := e.Schedule(5, func() { order = append(order, name) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("ties must fire in scheduling order, got %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []float64
	var recurse func()
	n := 0
	recurse = func() {
		times = append(times, e.Now())
		n++
		if n < 5 {
			if _, err := e.Schedule(2, recurse); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := e.Schedule(1, recurse); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev, err := e.Schedule(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if !ev.canceled {
		t.Error("cancelled flag should be set")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	// Clock must not advance for cancelled events.
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v for a cancelled event", e.Now())
	}
}

func TestScheduleErrors(t *testing.T) {
	e := New()
	if _, err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay should fail")
	}
	if _, err := e.Schedule(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay should fail")
	}
	if _, err := e.Schedule(1, nil); err == nil {
		t.Error("nil callback should fail")
	}
	if _, err := e.At(5, func() {}); err != nil {
		t.Error("future At should work")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(1, func() {}); err == nil {
		t.Error("At in the past should fail")
	}
}

func TestInfiniteEventTerminatesRun(t *testing.T) {
	e := New()
	fired := false
	if _, err := e.Schedule(math.Inf(1), func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := e.Schedule(1, func() { count++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("+Inf event must never fire")
	}
	if count != 1 {
		t.Error("finite event should fire before +Inf terminates")
	}
	if e.Now() != 1 {
		t.Errorf("clock = %v, want 1", e.Now())
	}
}

func TestMaxEventsGuard(t *testing.T) {
	e := New()
	e.MaxEvents = 100
	var loop func()
	loop = func() {
		if _, err := e.Schedule(1, loop); err != nil {
			t.Error(err)
		}
	}
	if _, err := e.Schedule(1, loop); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Error("runaway loop should trip MaxEvents")
	}
}

func TestEventTime(t *testing.T) {
	e := New()
	ev, err := e.Schedule(2.5, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if ev.time != 2.5 {
		t.Errorf("time = %v", ev.time)
	}
}

// Property: any batch of random non-negative delays fires in nondecreasing
// time order and the clock ends at the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		e := New()
		delays := make([]float64, count)
		var fired []float64
		for i := range delays {
			delays[i] = rng.Float64() * 100
			if _, err := e.Schedule(delays[i], func() { fired = append(fired, e.Now()) }); err != nil {
				return false
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != count {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		maxDelay := 0.0
		for _, d := range delays {
			if d > maxDelay {
				maxDelay = d
			}
		}
		return e.Now() == maxDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZeroDelayEventsRunInOrder(t *testing.T) {
	e := New()
	var order []int
	var chain func(i int) func()
	chain = func(i int) func() {
		return func() {
			order = append(order, i)
			if i < 4 {
				if _, err := e.Schedule(0, chain(i+1)); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if _, err := e.Schedule(0, chain(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 0 {
		t.Errorf("zero-delay chain advanced the clock to %v", e.Now())
	}
}

// TestReschedule pins Reschedule's contract: the event moves in place (no
// cancelled event is left queued), takes a fresh sequence number so it
// fires after events already queued for the same time, and a re-arm loop
// allocates nothing.
func TestReschedule(t *testing.T) {
	e := New()
	var order []string
	mk := func(name string, d float64) *Event {
		ev, err := e.Schedule(d, func() { order = append(order, fmt.Sprintf("%s@%v", name, e.Now())) })
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	a := mk("a", 1)
	mk("b", 2)
	c := mk("c", 3)
	if err := e.Reschedule(a, 2); err != nil { // ties b: fires after it
		t.Fatal(err)
	}
	if err := e.Reschedule(c, 0.5); err != nil { // moves earlier
		t.Fatal(err)
	}
	if len(e.events) != 3 || e.canceledLive != 0 {
		t.Fatalf("queue holds %d events (%d cancelled), want 3 live", len(e.events), e.canceledLive)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[c@0.5 b@2 a@2]"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}

	ev := mk("d", 1)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.Reschedule(ev, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Reschedule allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRescheduleNotQueued: rescheduling an event that is not queued (fired,
// cancelled, another engine's, nil) is an error, never a silent no-op, and
// a rejected delay leaves the event where it was.
func TestRescheduleNotQueued(t *testing.T) {
	e := New()
	fired, err := e.Schedule(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	var inside error
	self, err := e.Schedule(2, func() {})
	if err != nil {
		t.Fatal(err)
	}
	self.fn = func() { inside = e.Reschedule(self, 1) }
	canceled, err := e.Schedule(5, func() { t.Error("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	canceled.Cancel()
	other, err := New().Schedule(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0.0
	stay, err := e.Schedule(3, func() { kept = e.Now() })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("Step returned false")
	}
	for name, ev := range map[string]*Event{"fired": fired, "cancelled": canceled, "foreign": other, "nil": nil} {
		if err := e.Reschedule(ev, 1); err == nil {
			t.Errorf("Reschedule of a %s event succeeded", name)
		}
	}
	for _, d := range []float64{-1, math.NaN()} {
		if err := e.Reschedule(stay, d); err == nil {
			t.Errorf("Reschedule with delay %v succeeded", d)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inside == nil {
		t.Error("an event rescheduling itself from its own callback succeeded")
	}
	if kept != 3 {
		t.Errorf("event behind a rejected Reschedule fired at %v, want 3", kept)
	}
}
