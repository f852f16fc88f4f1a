#!/usr/bin/env bash
# Builds the server and the benchmark from the checkout in the current
# directory, then runs the benchmark, passing every argument through:
#
#   bash perfbench/run.sh --workload embed-warm --seed 1 --seconds 10 --trace 0
#
# Every build artifact (Go build cache, temp files, binaries) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bin/xtree-serve" ./cmd/xtree-serve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -server "$build/bin/xtree-serve" "$@"
