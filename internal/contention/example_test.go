package contention_test

import (
	"context"
	"fmt"

	"wroofline/internal/contention"
	"wroofline/internal/sweep"
	"wroofline/internal/units"
)

// Example runs a deterministic Monte Carlo over good/bad days: the makespan
// is volume over the day's rate.
func Example() {
	model := contention.TwoState{
		Base:     1 * units.GBPS,
		Degraded: 0.2 * units.GBPS,
		PBad:     0.3,
	}
	days, err := contention.MonteCarlo(context.Background(), 200, 42, 1, 0, model,
		func(days []units.ByteRate, out []float64) error {
			for i, rate := range days {
				out[i] = units.TimeToMove(1*units.TB, rate)
			}
			return nil
		}, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, err := sweep.Summarize(days)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("min %.0f s, median %.0f s, max %.0f s, tail %.1fx\n",
		s.Min, s.P50, s.Max, s.TailRatio)
	// Output:
	// min 1000 s, median 1000 s, max 5000 s, tail 5.0x
}
