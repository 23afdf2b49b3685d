#!/usr/bin/env bash
# Builds the siro benchmark from the sources of this checkout and runs
# one workload. Run it from the repository root:
#
#   bash sirobench/run.sh --workload hot-warm --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout. Build errors (for example a checkout
# without the module under test) exit non-zero before anything is run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/sirobench"
mkdir -p "$out/home" "$out/tmp"

# Keep the toolchain's caches and user files inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=""
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"

go -C sirobench build -o "$out/sirobench" . >&2

SIROBENCH_COMMIT=unknown
if [ -e .git ]; then SIROBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown); fi
export SIROBENCH_COMMIT
exec "$out/sirobench" "$@" --out "$out"
