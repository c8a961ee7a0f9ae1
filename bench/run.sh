#!/usr/bin/env bash
# Builds pblbench and pbld from this checkout into .bench_build/ and runs
# pblbench with the given arguments. Run it from the checkout's root:
#
#   bash bench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/,
# including the Go build cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$build/pblbench" ./cmd/pblbench
go -C bench build -o "$build/pbld" pblparallel/cmd/pbld
exec "$build/pblbench" -pbld "$build/pbld" -root "$root" -work "$build" "$@"
