#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout root:
#
#   bash bench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays in .bench_build/ (Go build cache,
# binary, serve cache directories, traces). The build needs the simulator
# sources one directory up; without them it fails before any result is
# printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/tdnuca-bench" .) >&2
cd "$root"
exec "$out/tdnuca-bench" "$@"
