#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): builds the benchmark from
# source into .bench_build/ at the root of the checkout and runs it there.
# Every Go cache is pointed inside the checkout so a run reads and writes
# nothing outside it, and the network is never consulted (stdlib only).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/topompc-bench" .)
cd "$root"
exec "$build/topompc-bench" "$@"
