#!/usr/bin/env bash
# Builds nabbitperf from source into .bench_build/ and runs it with the
# given arguments; this is BENCHMARK.json's command. Everything it writes
# (Go's build cache included) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/benchmarks/nabbitperf" && go build -o "$build/nabbitperf" .)
cd "$root"
exec "$build/nabbitperf" "$@"
