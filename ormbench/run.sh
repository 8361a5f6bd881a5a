#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, so its relative paths (testdata/, .bench_build/) resolve.
# Everything the build and the run write stays under .bench_build/.
#
#   bash ormbench/run.sh --workload daemon-exact --seed 42 --seconds 20 --trace 0
#   bash ormbench/run.sh compare before.txt after.txt
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C ormbench -o "$build/ormbench" .
exec "$build/ormbench" "$@"
