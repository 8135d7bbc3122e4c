#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the
# checkout's root. Everything the build writes stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/oadb-benchmark" .
exec "$build/oadb-benchmark" "$@"
