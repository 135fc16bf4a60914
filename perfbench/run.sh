#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload explore_mc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# run scratch space stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" TMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
export GOMODCACHE="$out/go-mod"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
