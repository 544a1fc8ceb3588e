#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# directory (the checkout root) and runs it with the given arguments.
# Everything the Go toolchain writes stays inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/jvbench" .
exec "$build/jvbench" "$@"
