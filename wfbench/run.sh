#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Run from
# the repository root:
#
#   bash wfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Every build artefact and Go cache goes under .bench_build/ in the
# checkout, and the traced run writes its spans under .wfbench-out/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/wfbench/go.mod" ]; then
    echo "wfbench/run.sh: run from the root of a wroofline checkout" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
    GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -C wfbench -o "$build/wfbench" .
exec "$build/wfbench" "$@"
