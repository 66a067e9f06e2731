package resources

import (
	"fmt"
	"testing"

	"wroofline/internal/engine"
)

// BenchmarkLink_SteadyState is the allocs/op regression gate for the link
// hot path: one long-lived link with a standing population of flows, where
// every iteration admits one transfer and drains until one completes. In
// steady state the event core must not allocate — flows, events, and the
// settle scratch all come from free lists (see ISSUE 4).
func BenchmarkLink_SteadyState(b *testing.B) {
	e := engine.New()
	l, err := NewLink(e, "bench", 100, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Standing population: 64 staggered flows.
	for i := 0; i < 64; i++ {
		if err := l.Transfer(float64(1000+i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Admit one flow and run until the next completion frees a slot.
		if err := l.Transfer(float64(1000+i%64), nil); err != nil {
			b.Fatal(err)
		}
		before := len(l.heap)
		for len(l.heap) >= before {
			if !e.Step() {
				b.Fatal("engine drained with flows outstanding")
			}
		}
	}
}

// BenchmarkLink_Churn1000 measures a full busy period: 1000 staggered flows
// admitted against one shared link, drained to empty. This is the pattern
// BenchmarkSim_LinkStress1000Flows exercises through the simulator; here it
// isolates the link + engine cost (the old per-flow settle/reschedule was
// O(flows^2) over the busy period).
func BenchmarkLink_Churn1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := engine.New()
		l, err := NewLink(e, "churn", 1e9, 0)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 1000; j++ {
			vol := float64(1+j%7) * 1e9
			at := float64(j%10) / 10
			if _, err := e.Schedule(at, func() {
				if err := l.Transfer(vol, nil); err != nil {
					panic(fmt.Sprintf("transfer: %v", err))
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if len(l.heap) != 0 {
			b.Fatal("link not drained")
		}
	}
}
