#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and the store
# it measures from the source in this checkout, keeps every build and
# run file under <checkout>/.bench_build, and hands its arguments on:
#
#   bash benchmark/run.sh --workload get-point --seed 1 --seconds 22 --trace 0
#   bash benchmark/run.sh -runs 5 -out set.json        (see README.md)
#
# It fails, printing no result, where the store's source is missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# No VCS stamping: the checkout need not be a repository. The go command
# keeps its settings and telemetry counters under XDG_CONFIG_HOME.
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -buildvcs=false -o "$build/dasbenchmark" .)

BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

cd "$root"
exec "$build/dasbenchmark" -workdir "$build/tmp" "$@"
