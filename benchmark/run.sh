#!/usr/bin/env bash
# The repository's one benchmark command. It builds benchmark/ from source
# and runs it; every metric is printed by name with its unit, and outputs are
# checked. Run it from anywhere; it works from the repository root.
#
#   benchmark/run.sh                  the untraced suite: four workloads, end-to-end metrics
#   benchmark/run.sh --trace          the traced suite: layer cells, per-workload counts, spans
#   benchmark/run.sh --selfcheck      the untraced suite twice, compared against BENCHMARK.json's bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one workload; the last line of output is one JSON object
#
# Results land in benchmark/out/ (result.json, trace.json, selfcheck.json).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="benchmark/out"
mkdir -p "$out"

# The build reads and writes nothing outside the checkout: its own cache and
# temporary directory, no user-level go env file, no network, no toolchain
# download, no VCS stamping (a checkout need not be a git repository).
mkdir -p "$out/tmp"
export GOCACHE="$root/$out/gocache" GOTMPDIR="$root/$out/tmp" GOENV=off \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$root/$out/benchmark" . >&2

BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$out/benchmark" "$@"
