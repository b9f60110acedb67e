#!/usr/bin/env bash
# Builds and runs the knnperf benchmark from the root of a checkout:
#
#   bash knnperf/run.sh --workload scatter --seed 1 --seconds 10 --trace 0
#
# Go's build cache and temporary files stay under .bench_build/ in the
# checkout, and the toolchain is pinned to the local one with the module
# proxy off, so a build never reaches the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
cd "$root/knnperf"
exec go run . "$@"
