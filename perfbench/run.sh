#!/usr/bin/env bash
# Builds the benchmark and the sonuma-node daemon from the checkout it is run
# from, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload rmc-mix --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, socket directories, span
# files) stays under .bench_build in the current directory.
set -euo pipefail

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache"
export GOTMPDIR="$PWD/$out/tmp"
export GOMODCACHE="$PWD/$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The daemon is built once here, before any workload runs, so its build
# never counts toward a workload's set-up time.
go build -o "$out/sonuma-node" ./cmd/sonuma-node
go -C perfbench build -o "$PWD/$out/perfbench" .
"$out/perfbench" -node-bin "$out/sonuma-node" -out "$out" "$@"
