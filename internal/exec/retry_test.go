package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wroofline/internal/dag"
	"wroofline/internal/failure"
)

func TestRetryRecoversTransientFailure(t *testing.T) {
	g := mustGraph(t, func(g *dag.Graph) error { return g.AddEdge("a", "b") })
	var mu sync.Mutex
	calls := map[string]int{}
	flaky := func(id string, failTimes int) Fn {
		return func(ctx context.Context) error {
			mu.Lock()
			calls[id]++
			n := calls[id]
			mu.Unlock()
			if n <= failTimes {
				return fmt.Errorf("transient %d", n)
			}
			return nil
		}
	}
	res, err := Run(context.Background(), g,
		map[string]Fn{"a": flaky("a", 2), "b": flaky("b", 0)},
		Options{Retry: &failure.Retry{MaxAttempts: 5, BackoffSeconds: 0.001, BackoffFactor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() != nil {
		t.Fatalf("retries should have recovered the run: %v (errors %v)", res.Err(), res.Errors)
	}
	if res.Attempts["a"] != 3 || res.Attempts["b"] != 1 {
		t.Errorf("attempts = %v, want a:3 b:1", res.Attempts)
	}
	// Every attempt records a span.
	n := 0
	for _, s := range res.Recorder.Spans() {
		if s.Task == "a" {
			n++
		}
	}
	if n != 3 {
		t.Errorf("task a recorded %d spans, want 3", n)
	}
}

func TestRetryExhaustsAndReportsAttempts(t *testing.T) {
	g := mustGraph(t, func(g *dag.Graph) error { return g.AddEdge("a", "b") })
	always := func(ctx context.Context) error { return errors.New("broken") }
	ok := func(ctx context.Context) error { return nil }
	res, err := Run(context.Background(), g, map[string]Fn{"a": always, "b": ok},
		Options{Retry: &failure.Retry{MaxAttempts: 3, BackoffSeconds: 0.001, BackoffFactor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() == nil {
		t.Fatal("run should have failed")
	}
	if res.Attempts["a"] != 3 {
		t.Errorf("attempts[a] = %d, want 3", res.Attempts["a"])
	}
	if aErr := res.Errors["a"]; aErr == nil || !errors.Is(res.Errors["b"], ErrSkipped) {
		t.Errorf("errors = %v", res.Errors)
	}
	if aErr := res.Errors["a"].Error(); aErr != "after 3 attempts: broken" {
		t.Errorf("error = %q", aErr)
	}
	// b never ran, so it has no attempt entry.
	if _, ok := res.Attempts["b"]; ok {
		t.Errorf("skipped task got an attempt count: %v", res.Attempts)
	}
}

func TestRetryBackoffRespectsCancellation(t *testing.T) {
	g := mustGraph(t, func(g *dag.Graph) error { return g.AddNode("a") })
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	fn := func(c context.Context) error {
		select {
		case started <- struct{}{}:
		default:
		}
		return errors.New("always")
	}
	go func() {
		<-started
		cancel()
	}()
	t0 := time.Now()
	res, err := Run(ctx, g, map[string]Fn{"a": fn},
		Options{Retry: &failure.Retry{MaxAttempts: 100, BackoffSeconds: 3600, BackoffFactor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("cancelled backoff still slept %v", elapsed)
	}
	if res.Err() == nil {
		t.Fatal("cancelled run should report the failure")
	}
}

func TestNoRetryLeavesAttemptsNil(t *testing.T) {
	g := mustGraph(t, func(g *dag.Graph) error { return g.AddNode("a") })
	res, err := Run(context.Background(), g,
		map[string]Fn{"a": func(ctx context.Context) error { return nil }}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != nil {
		t.Errorf("attempts without a retry policy: %v", res.Attempts)
	}
}

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	r := &failure.Retry{MaxAttempts: 4, BackoffSeconds: 0.001, BackoffFactor: 1, JitterFrac: 0.5}
	run := func(seed uint64) *Result {
		g := mustGraph(t, func(g *dag.Graph) error { return g.AddNode("a") })
		res, err := Run(context.Background(), g,
			map[string]Fn{"a": func(ctx context.Context) error { return errors.New("x") }},
			Options{Retry: r, RetrySeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(1); a.Attempts["a"] != b.Attempts["a"] {
		t.Errorf("same seed diverged: %v vs %v", a.Attempts, b.Attempts)
	}
}

// TestLongSkipChainDoesNotOverflowStack pins the iterative worklist: a failed
// source followed by a 100k-task dependency chain of skips must settle without
// recursing once per task (the old settle->launch->settle recursion overflowed
// the goroutine stack on chains like this).
func TestLongSkipChainDoesNotOverflowStack(t *testing.T) {
	const n = 100_000
	g := dag.New()
	fns := make(map[string]Fn, n)
	ok := func(ctx context.Context) error { return nil }
	prev := "t0"
	if err := g.AddNode(prev); err != nil {
		t.Fatal(err)
	}
	fns[prev] = func(ctx context.Context) error { return errors.New("root failure") }
	for i := 1; i < n; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := g.AddEdge(prev, id); err != nil {
			t.Fatal(err)
		}
		fns[id] = ok
		prev = id
	}
	res, err := Run(context.Background(), g, fns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != n {
		t.Fatalf("errors = %d, want %d (1 failure + %d skips)", len(res.Errors), n, n-1)
	}
	skipped := 0
	for _, e := range res.Errors {
		if errors.Is(e, ErrSkipped) {
			skipped++
		}
	}
	if skipped != n-1 {
		t.Fatalf("skipped = %d, want %d", skipped, n-1)
	}
	if res.Completed != 0 {
		t.Fatalf("completed = %d", res.Completed)
	}
}
