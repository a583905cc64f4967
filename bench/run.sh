#!/usr/bin/env bash
# Builds the benchmark driver from source inside the checkout and runs
# it; this is the command BENCHMARK.json names. Everything the build
# writes (binary, Go build cache) stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-mod=vendor GOTOOLCHAIN=local
go build -o "$build/dsbench" ./bench
exec "$build/dsbench" "$@"
