#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (and, through
# the replace in go.mod, the program under test) from source, then runs it
# with the caller's arguments. Everything the Go toolchain writes — build
# cache, module cache, its own config and telemetry — is pointed at
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/../.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/pushdowndb-bench" .
exec "$build/pushdowndb-bench" "$@"
