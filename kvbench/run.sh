#!/usr/bin/env bash
# Builds kvbench from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash kvbench/run.sh --workload get-uniform --seed 1 --seconds 10 --trace 0
#
# Build cache, temporary files, the binary and the traced run's spans
# and CPU profile all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C kvbench build -o "$out/kvbench" . >&2
exec "$out/kvbench" "$@"
