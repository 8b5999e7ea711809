#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json: builds the bench from source inside
# the checkout and runs one workload.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The Go build cache, the build's temporary files and the binary live under
# .bench_build/ in the checkout, so nothing is read or written outside it; an
# unchanged tree relinks nothing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/soclbench-e2e" .
exec "$build/soclbench-e2e" measure "$@"
