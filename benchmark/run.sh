#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark and cmd/hyperion-server from the checkout's sources into
# .bench_build (Go's build cache lives there too, so nothing is read or written
# outside the checkout and rebuilds are incremental), then runs one workload.
# The build is not part of any metric. In a directory without the repository's
# sources the build fails and the script exits non-zero without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(
	cd benchmark
	go build -o "$build/hyperion-benchmark" .
	go build -o "$build/hyperion-server" repro/cmd/hyperion-server
) >&2
exec "$build/hyperion-benchmark" -server-bin "$build/hyperion-server" -out benchmark/out "$@"
