#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from that root with the arguments given. Everything the go
# command writes (build cache, temporary files, module cache, its telemetry
# counters under the config directory) is pointed there too, so nothing is
# written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/ariadne-benchmark" .
exec "$build/ariadne-benchmark" "$@"
