#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json's command):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the bench (a module of its own, bench/go.mod) from source inside
# the checkout and runs it from the checkout's root with the given
# arguments; the bench in turn builds and starts ./cmd/kfserver.
# Everything the go tool writes — build cache, module path, its own
# telemetry — is pointed into .bench_build/, so a run reads and writes
# only inside the checkout. Exits non-zero, printing no result, when the
# repository's sources are not there to build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
