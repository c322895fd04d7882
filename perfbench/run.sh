#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload paper-run --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, traced-run span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
