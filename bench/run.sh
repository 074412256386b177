#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given
# arguments. Nothing is read or written outside that directory: the Go
# build cache lives there too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
go build -C "$here" -o "$build/bench" .
exec "$build/bench" "$@"
