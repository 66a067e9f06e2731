package sim

import (
	"fmt"
	"testing"

	"wroofline/internal/machine"
	"wroofline/internal/units"
	"wroofline/internal/workflow"
)

// stagedPlan compiles an LCLS-shaped staged fan-in — five external-staging
// analyses into a merge — whose external flows keep every trial on the event
// loop (the analytic path never fires).
func stagedPlan(tb testing.TB) *Plan {
	tb.Helper()
	wf := workflow.New("staged", machine.PartCPU)
	progs := map[string]Program{
		"merge": {{Kind: PhaseFixed, Seconds: 1, Name: "merge"}},
	}
	if err := wf.AddTask(&workflow.Task{ID: "merge", Nodes: 1}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := wf.AddTask(&workflow.Task{ID: id, Nodes: 1}); err != nil {
			tb.Fatal(err)
		}
		if err := wf.AddDep(id, "merge"); err != nil {
			tb.Fatal(err)
		}
		progs[id] = Program{
			{Kind: PhaseExternal, Bytes: units.Bytes(1e12), Name: "loading"},
			{Kind: PhaseFixed, Seconds: 120, Name: "analysis"},
		}
	}
	p, err := Compile(wf, progs, Config{
		Machine:            machine.Perlmutter(),
		ExternalBW:         units.ByteRate(5e9),
		ExternalPerFlowCap: units.ByteRate(1e9),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// benchmarkSimBatch measures the batch executor at batch size k with a
// distinct external rate per trial and per iteration. Fresh rates defeat the
// plan's trial memo, which persists across RunBatch calls — every trial runs
// the full event loop behind a miss on a full memo (the cost a continuous
// sampler pays), so ns/op per trial isolates what scratch reuse across
// the batch buys (compare Batch1 against Batch64/Batch1024; allocs/op stays
// at about six per trial, the event loop's own). BenchmarkSim_BatchMemoHit
// is the other side: every trial a memo hit.
func benchmarkSimBatch(b *testing.B, k int) {
	p := stagedPlan(b)
	trials := make([]Trial, k)
	out := make([]BatchResult, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range trials {
			trials[j] = Trial{
				OverrideExternal:   true,
				ExternalBW:         units.ByteRate(5e9 + float64(i*k+j)*1e3),
				ExternalPerFlowCap: units.ByteRate(1e9),
			}
		}
		if err := p.RunBatch(trials, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkSim_Batch1(b *testing.B)    { benchmarkSimBatch(b, 1) }
func BenchmarkSim_Batch64(b *testing.B)   { benchmarkSimBatch(b, 64) }
func BenchmarkSim_Batch1024(b *testing.B) { benchmarkSimBatch(b, 1024) }

// BenchmarkSim_BatchMemoHit measures a 64-trial two-state batch against a
// warm plan memo: the steady state of a Monte Carlo sweep over a cached
// plan, where every trial is a lookup and no trial simulates.
func BenchmarkSim_BatchMemoHit(b *testing.B) {
	p := stagedPlan(b)
	const k = 64
	trials := make([]Trial, k)
	for j := range trials {
		rate := units.ByteRate(1e9)
		if j%3 == 0 {
			rate = units.ByteRate(2e8)
		}
		trials[j] = Trial{OverrideExternal: true, ExternalBW: 5 * rate, ExternalPerFlowCap: rate}
	}
	out := make([]BatchResult, k)
	if err := p.RunBatch(trials, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.RunBatch(trials, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}
