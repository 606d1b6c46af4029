#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product and scratch file
# stays under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build) in that root.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" -build "$build" "$@"
