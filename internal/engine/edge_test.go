package engine

import (
	"math"
	"testing"
)

// TestScheduleAtEdgeCases pins the engine's contract around +Inf "no next
// completion" placeholders and cancelled events, table-driven over Run
// drains. These are the shapes the resource pools lean on: park a placeholder at +Inf, cancel it when a real completion
// shows up, and let the drain loops skip the corpses.
func TestScheduleAtEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// setup schedules events and returns the drain to use.
		setup       func(t *testing.T, e *Engine, fired *[]float64) func() error
		wantFired   []float64
		wantNow     float64
		wantPending int
	}{
		{
			name: "cancelled +Inf placeholder is drained silently",
			setup: func(t *testing.T, e *Engine, fired *[]float64) func() error {
				inf, err := e.Schedule(math.Inf(1), func() { t.Error("placeholder fired") })
				if err != nil {
					t.Fatal(err)
				}
				mustSchedule(t, e, 2, fired)
				inf.Cancel()
				return e.Run
			},
			wantFired:   []float64{2},
			wantNow:     2,
			wantPending: 0,
		},
		{
			name: "live +Inf placeholder terminates Run and is consumed",
			setup: func(t *testing.T, e *Engine, fired *[]float64) func() error {
				if _, err := e.Schedule(math.Inf(1), func() { t.Error("placeholder fired") }); err != nil {
					t.Fatal(err)
				}
				mustSchedule(t, e, 1, fired)
				return e.Run
			},
			wantFired: []float64{1},
			wantNow:   1,
			// Step pops the +Inf event to inspect it and does not requeue:
			// the placeholder is consumed by the run that it terminates.
			wantPending: 0,
		},
		{
			name: "second +Inf placeholder survives the first's termination",
			setup: func(t *testing.T, e *Engine, fired *[]float64) func() error {
				for i := 0; i < 2; i++ {
					if _, err := e.Schedule(math.Inf(1), func() { t.Error("placeholder fired") }); err != nil {
						t.Fatal(err)
					}
				}
				return e.Run
			},
			wantFired:   nil,
			wantNow:     0,
			wantPending: 1,
		},
		{
			name: "Run drains cancelled heads without firing them",
			setup: func(t *testing.T, e *Engine, fired *[]float64) func() error {
				for _, d := range []float64{1, 2} {
					ev, err := e.Schedule(d, func() { t.Error("cancelled event fired") })
					if err != nil {
						t.Fatal(err)
					}
					ev.Cancel()
				}
				mustSchedule(t, e, 3, fired)
				return e.Run
			},
			wantFired:   []float64{3},
			wantNow:     3,
			wantPending: 0,
		},
		{
			name: "cancel inside a callback kills a later event",
			setup: func(t *testing.T, e *Engine, fired *[]float64) func() error {
				victim, err := e.Schedule(2, func() { t.Error("victim fired") })
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Schedule(1, func() {
					*fired = append(*fired, e.Now())
					victim.Cancel()
				}); err != nil {
					t.Fatal(err)
				}
				mustSchedule(t, e, 3, fired)
				return e.Run
			},
			wantFired:   []float64{1, 3},
			wantNow:     3,
			wantPending: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			var fired []float64
			drain := tc.setup(t, e, &fired)
			if err := drain(); err != nil {
				t.Fatal(err)
			}
			if len(fired) != len(tc.wantFired) {
				t.Fatalf("fired = %v, want %v", fired, tc.wantFired)
			}
			for i := range fired {
				if fired[i] != tc.wantFired[i] {
					t.Fatalf("fired = %v, want %v", fired, tc.wantFired)
				}
			}
			if e.Now() != tc.wantNow {
				t.Errorf("clock = %v, want %v", e.Now(), tc.wantNow)
			}
			if got := pending(e); got != tc.wantPending {
				t.Errorf("pending = %d, want %d", got, tc.wantPending)
			}
		})
	}
}

// pending is the number of live (non-cancelled) events still queued.
func pending(e *Engine) int { return len(e.events) - e.canceledLive }

// mustSchedule queues a callback at delay d that records its firing time.
func mustSchedule(t *testing.T, e *Engine, d float64, fired *[]float64) {
	t.Helper()
	if _, err := e.Schedule(d, func() { *fired = append(*fired, e.Now()) }); err != nil {
		t.Fatal(err)
	}
}
