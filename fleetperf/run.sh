#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash fleetperf/run.sh --workload cold-diagnose --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the working directory; no network access is needed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$root/fleetperf" && go build -o "$build/bin/fleetperf" .)
exec "$build/bin/fleetperf" "$@"
