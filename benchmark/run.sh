#!/usr/bin/env bash
# Builds gvad and the benchmark from the checkout this is run in, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/gvad" ./cmd/gvad
go -C benchmark build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -gvad "$build/bin/gvad" -work "$build/work" -out "$build/results" "$@"
