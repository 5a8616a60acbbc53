#!/usr/bin/env bash
# Entry point the benchmark driver calls from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness from source with the build cache and the binary under
# .bench_build/ (nothing is written outside the checkout), then runs it.
# The first call in a checkout compiles; later calls find everything cached.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
go build -o .bench_build/psra-benchmark ./benchmark
exec .bench_build/psra-benchmark "$@"
