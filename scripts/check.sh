#!/usr/bin/env bash
# Tier-2 gate: formatting, static analysis, and the race detector across the
# whole module. Tier-1 (go build && go test ./...) is assumed to run first;
# this script is the slower, stricter pass CI and pre-commit hooks call.
#
#   scripts/check.sh            # gofmt + vet + race tests
#   scripts/check.sh -fuzz      # also run each fuzz target (FUZZTIME, default 30s)
set -u
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    fail=1
else
    echo "ok"
fi

echo "== go vet =="
if go vet ./...; then
    echo "ok"
else
    fail=1
fi

echo "== go test -race =="
if go test -race ./...; then
    echo "ok"
else
    fail=1
fi

# The unreached-API guard: every exported internal/ function or method that
# only tests reach must be on testdata/unreached_api.txt, and the list may
# only shrink. Named so new test-only API is attributed immediately.
echo "== unreached API guard =="
if go test . -run TestUnreachedAPI -count=1; then
    echo "ok"
else
    fail=1
fi

# The batch-executor differential wall is the correctness proof for the
# Monte Carlo fast path, the plan's trial memo and the fault-free screen
# that serves failure trials from it; run it as a named gate (race +
# quick) so a regression is attributed immediately rather than buried in
# the full run.
echo "== batch differential wall (race) =="
if go test -race ./internal/sim -run 'TestBatchDifferential|TestAnalytic|TestPlanMemo|TestFaultFreeScreen' -count=1; then
    echo "ok"
else
    fail=1
fi

# The event queue wall is the correctness proof for the typed event heap
# and in-place Reschedule: random At/Schedule/Cancel/Reschedule/Step
# programs must match the container/heap reference engine (firing order,
# times, schedule and MaxEvents errors), the bucketed link must match its
# per-flow reference, the batch executor must match per-trial runs, every
# corpus lane scenario must match the reference path, and no simulated
# makespan may beat the roofline-weighted critical path.
echo "== event queue wall (race) =="
if go test -race ./internal/engine -count=1 &&
   go test -race ./internal/resources -run 'TestQuickDifferentialLink|TestQuickBucketedCapacityConservation' -count=1 &&
   go test -race ./internal/sim -run 'TestBatchDifferential|TestSimMakespanAtLeastCriticalPath' -count=1 &&
   go test -race ./internal/study -run 'TestCorpusLaneMatchesReference' -count=1; then
    echo "ok"
else
    fail=1
fi

# The encoder wall is the correctness proof for the direct table encoder:
# AppendJSON must write exactly what encoding/json writes for the old
# reflection struct on any strings (HTML escapes, U+2028/U+2029, invalid
# UTF-8, control bytes, empty header and row sets), the /v1/sweep buffered
# body and final stream line must match their goldens for every study
# kind, and rendering a sweep body must cost one allocation. The
# allocation floor runs without -race, which allocates on its own.
echo "== encoder wall =="
if go test -race ./internal/report -count=1 &&
   go test -race ./internal/serve -run 'TestSweepBodyGolden' -count=1 &&
   go test ./internal/serve -run 'TestRenderSweepAllocs' -count=1; then
    echo "ok"
else
    fail=1
fi

# The failure exhaustion wall: a trial whose task uses up its attempts
# surfaces from RunBatch as an indexed, resumable error, and a failure
# ensemble reports it in an "unfinished" bin (buffered and streamed alike)
# instead of failing the whole request.
echo "== failure exhaustion wall (race) =="
if go test -race ./internal/sim -run 'TestRunBatchExhausted|TestPermanentFailure' -count=1 &&
   go test -race ./internal/study -run 'TestFailuresUnfinished|TestFailuresAllUnfinished' -count=1 &&
   go test -race ./internal/serve -run 'TestSweepFailuresUnfinished' -count=1; then
    echo "ok"
else
    fail=1
fi

# The construction wall guards the one-shot generate -> build -> compile ->
# run path: the insertion-indexed graph must match the map-of-maps
# reference on random graphs (duplicate edges, cycles, isolated vertices)
# and stay safe under concurrent queries, plans of every shape must run
# through the shared trial scratch exactly as on a fresh one, and the node
# pool's queue must stop reallocating. The allocation floors run again
# without -race, which drops pooled objects and would void the counts.
echo "== construction wall (race) =="
if go test -race ./internal/dag ./internal/resources -count=1 &&
   go test -race ./internal/sim -run 'TestSharedScratch|TestCompileRunScalarAllocs|TestFailureBatchAllocs' -count=1 &&
   go test ./internal/sim ./internal/resources -run 'TestCompileRunScalarAllocs|TestFailureBatchAllocs|TestPoolSteadyStateAllocs' -count=1; then
    echo "ok"
else
    fail=1
fi

# The peak arithmetic wall guards the one peak table (machine.Peaks and
# core.TaskLoads): a one-task workflow's simulated makespan must be the sum
# of its per-resource times at peak and its pipeline bound their max, on
# every partition of the built-in machines; work on a resource with no peak
# must fail with the one named error in the model, the pipeline bound and
# the simulator; and no simulated makespan may beat the roofline-weighted
# critical path. The allocation floors of the code that reads the peaks run
# again without -race, which drops pooled objects and would void the counts.
echo "== peak arithmetic wall =="
if go test -race ./internal/sim -run 'TestPeakTimesAgree|TestNoPeakErrorEveryLayer|TestSimMakespanAtLeastCriticalPath' -count=1 &&
   go test -race ./internal/core ./internal/pipeline -count=1 &&
   go test ./internal/study ./internal/sim -run 'TestCorpusLaneAllocs|TestCompileRunScalarAllocs|TestFailureBatchAllocs' -count=1; then
    echo "ok"
else
    fail=1
fi

# The corpus lane wall is the correctness proof for the shape-compiled
# corpus lane: every lane scenario must equal Generate -> core.Build ->
# sim.Compile -> RunScalar bit for bit (errors included), the generator must
# reproduce its golden digests, a rebound plan must match a fresh compile
# with its own trial memo, the shape key must cover every field the shape
# reads, and no shape above the cached-shape bound may stay in the plan
# cache. The allocation floors run again without -race, which drops pooled
# objects and would void the counts.
echo "== corpus lane wall =="
if go test -race ./internal/study -run 'TestCorpusLane|TestCorpusShape|TestPlanCacheCorpus' -count=1 &&
   go test -race ./internal/sim ./internal/wfgen -run 'TestShape|TestGenerateGolden' -count=1 &&
   go test ./internal/study ./internal/sim -run 'TestCorpusLaneAllocs|TestCompileRunScalarAllocs' -count=1; then
    echo "ok"
else
    fail=1
fi

# The cluster equivalence gates are the correctness proof for wfgate: a
# 3-replica cluster must be byte-identical to a single server, a 64-way
# herd must cost exactly one evaluation, and a replica kill must reroute
# without a 5xx window. Named so a failure is attributed immediately.
echo "== cluster equivalence wall (race) =="
if go test -race ./internal/cluster -run 'TestCluster|TestGate' -count=1; then
    echo "ok"
else
    fail=1
fi

# The gate buffer ownership wall: the gate recycles an upstream body
# buffer only when its flight leader ran alone, so these tests (the flight's
# exclusivity report, the pool's size cap, and a coalesced herd, cancelling
# waiters, mixed body sizes and lying upstreams through one gate) run many
# times under -race, where a recycled buffer another rider still reads is a
# reported race. Named so a failure is attributed immediately.
echo "== gate buffer ownership wall (race) =="
if go test -race ./internal/cluster ./internal/cas -run 'TestGatePooledBody|TestFlightExclusivity' -count=50; then
    echo "ok"
else
    fail=1
fi

# The gate hit path wall runs without -race, which would skip the
# allocation floor: a repeat hit's allocs and bytes, the upstream request's
# parity with http.NewRequestWithContext, the shared upstream deadline
# (Timeout to Timeout+Timeout/32 per try, then the next replica), and a
# replica's redirect passed through unfollowed. Named so a failure is
# attributed immediately.
echo "== gate hit path wall =="
if go test ./internal/cluster -run 'TestGateHitAllocs|TestGateUpstreamRequestParity|TestGateFetchDeadline|TestGateRedirectPassThrough' -count=1; then
    echo "ok"
else
    fail=1
fi

# The serve-layer bugfix regressions (If-None-Match list matching, flight
# waiter cancellation, recorder panic recycling) ride the same wall. The
# flight waiter unit tests live with the shared singleflight in
# internal/cas, so that package runs here too.
echo "== serve bugfix wall (race) =="
if go test -race ./internal/serve -run 'TestETagMatch|TestConditional|TestFlightWaiter|TestServeCancelled|TestInstrument|TestRecorder|TestPeerFill' -count=1 &&
   go test -race ./internal/cas -count=1; then
    echo "ok"
else
    fail=1
fi

# The streaming equivalence wall is the correctness proof for streamed
# delivery: the final streamed aggregate must be byte-identical to the
# buffered rendering (standalone and through a 1-gate/3-replica cluster),
# disconnects must cancel upstream evaluations, and the weighted-fair
# admission scheduler must shed with Retry-After rather than misreported
# timeouts. Named so a failure is attributed immediately.
echo "== streaming equivalence wall (race) =="
if go test -race ./internal/serve -run 'TestSweepStream|TestAdmission|TestQueueFullRetryAfter|TestRateShedRetryAfter|TestDeadlineNeverStartsEval' -count=1 &&
   go test -race ./internal/cluster -run 'TestClusterStream' -count=1 &&
   go test -race ./internal/study -run 'TestRunStream' -count=1 &&
   go test -race ./cmd/wfgate -run 'TestRunStreamsIncrementally' -count=1; then
    echo "ok"
else
    fail=1
fi

# The stream frontier wall guards the streamed sweep's first progress
# line: MapChunksProgress runs chunk 0 before fanning out, so a cold
# multi-chunk stream always carries a progress line before its result.
# Repeated at several GOMAXPROCS settings because the failure it guards
# against was a worker race. Named so a failure is attributed immediately.
echo "== stream frontier wall =="
if go test ./internal/serve -run TestSweepStreamDifferential -count=200 -cpu 1,2,8; then
    echo "ok"
else
    fail=1
fi

# The plan-cache differential wall is the correctness proof for the
# second-level evaluation cache: cached-plan and fresh-compile evaluations
# must be byte-identical (bodies and ETags) for every ensemble kind and
# /v1/model, at any worker x batch geometry, and the LRU must respect its
# capacity under random geometries (the LRU property tests live with the
# shared cache in internal/cas). Named so a failure is attributed
# immediately.
echo "== plan cache differential wall (race) =="
if go test -race ./internal/cas -count=1 &&
   go test -race ./internal/plancache -count=1 &&
   go test -race ./internal/study -run 'TestPlanCache' -count=1 &&
   go test -race ./internal/serve -run 'TestPlanCache' -count=1; then
    echo "ok"
else
    fail=1
fi

# The ensemble summary wall: every ensemble report (Monte Carlo, grid,
# survey, corpus, failures) summarizes its own result slice with
# sweep.Summarize and counts labels with sweep.Hist, so these packages and
# the transcripts that print their summaries are the proof that the one
# summary rule reproduces every table byte for byte. The archetype shape
# survey is closed-form over wfgen families; its tests and the
# examples/archetypes transcript pin it.
echo "== ensemble summary wall =="
if go test -race -count=1 ./internal/sweep ./internal/whatif ./internal/contention ./internal/study &&
   go test -count=1 ./cmd/wfsweep ./examples/custom ./examples/archetypes -run 'TestGolden' &&
   go test -count=1 ./internal/study ./internal/serve -run 'Survey'; then
    echo "ok"
else
    fail=1
fi

# wfbench is its own Go module, so the root go test ./... never compiles
# it: an API break in plancache/serve/study/cluster would otherwise pass
# unnoticed until the benchmark runs.
echo "== benchmark module (vet + test) =="
if go vet -C wfbench ./... && go test -C wfbench ./...; then
    echo "ok"
else
    fail=1
fi

if [ "${1:-}" = "-fuzz" ]; then
    fuzztime="${FUZZTIME:-30s}"
    echo "== fuzz ($fuzztime per target) =="
    for target in ./internal/wdl:FuzzParse ./internal/sbatch:FuzzParse \
                  ./internal/machine:FuzzParse ./internal/failure:FuzzParse \
                  ./internal/wfgen:FuzzWfgenSpec ./internal/sim:FuzzBatchPlan \
                  ./internal/study:FuzzCorpusLane ./internal/engine:FuzzEngine \
                  ./internal/sim:FuzzSimMakespanBound ./internal/report:FuzzTableJSON \
                  ./internal/report:FuzzNum; do
        pkg="${target%%:*}"
        fuzz="${target##*:}"
        if ! go test "$pkg" -fuzz="$fuzz" -fuzztime="$fuzztime"; then
            fail=1
        fi
    done
fi

if [ "$fail" -ne 0 ]; then
    echo "CHECK FAILED"
    exit 1
fi
echo "CHECK PASSED"
