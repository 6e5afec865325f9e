#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload star-sketchml --seed 1 --seconds 30 --trace 0
# Run from the repository root. Every build artifact, cache and trace file
# stays under the build directory (CARGO_TARGET_DIR if set, else
# .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
# The benchmark pins its own scheduling and codec parallelism.
unset GOMAXPROCS GOGC GOMEMLIMIT GODEBUG SKETCHML_PARALLELISM

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
