#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload ndvi-frames --seed 1 --seconds 35 --trace 0
# Every build artefact, cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out" "$@"
