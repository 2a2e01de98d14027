#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: bash benchmark/run.sh --workload chol-smp --seed 1 --seconds 12 --trace 0
# Everything the build writes (compiler cache included) stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOENV=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
(cd benchmark && go build -o "$build/pdl-benchmark" .)
exec "$build/pdl-benchmark" "$@"
