#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root. Everything the Go toolchain writes (build cache, temp files,
# the binary) stays under .bench_build/, so the run touches nothing outside
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/visbench" .)
cd "$root"
exec "$build/visbench" "$@"
