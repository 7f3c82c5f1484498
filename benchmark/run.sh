#!/usr/bin/env bash
# The driver's entry point: builds the benchmark from source into
# .bench_build/ at the root of the checkout and runs it with the
# arguments given:
#
#   bash benchmark/run.sh --workload small_pingpong --seed 1 --seconds 20 --trace 0
#
# Everything the go command writes (build cache, module cache, temporary
# files, its own configuration and counters) is pointed into
# .bench_build/ too, so nothing is read or written outside the checkout.
# By hand, `go run ./benchmark <flags>` does the same with the user's own
# caches.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Without the repository around it there is nothing to measure; say so
# rather than let the go command look for a module further up.
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: $PWD is not a checkout of the repository (no go.mod, no internal/)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
