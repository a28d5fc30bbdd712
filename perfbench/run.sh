#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload live-short --seed 42 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/accel || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an nvwa checkout (go.mod, internal/accel and perfbench/ not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
