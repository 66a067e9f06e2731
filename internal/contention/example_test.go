package contention_test

import (
	"context"
	"fmt"

	"wroofline/internal/contention"
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
	dist, err := contention.MonteCarlo(context.Background(), 200, 42, 1, 0, model,
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
	p50, _ := dist.Percentile(50)
	tail, _ := dist.TailRatio()
	fmt.Printf("min %.0f s, median %.0f s, max %.0f s, tail %.1fx\n",
		dist.Min(), p50, dist.Max(), tail)
	// Output:
	// min 1000 s, median 1000 s, max 5000 s, tail 5.0x
}
