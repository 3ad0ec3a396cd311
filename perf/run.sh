#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perf/run.sh --workload npb-check --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build or the run writes
# (Go build cache, temporary files, the binary, trace JSON) stays under
# the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export PERF_OUT=$build

go -C "$root/perf" build -o "$build/perf" .
exec "$build/perf" "$@"
