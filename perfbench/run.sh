#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, from the root of
# the repository:
#
#   bash perfbench/run.sh --workload churn-arb --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, sockets and span files all stay under
# .bench_build/ in the working directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
