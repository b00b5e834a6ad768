#!/usr/bin/env bash
# Builds the fabricpower benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash fabricbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and traces stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd fabricbench && go build -o "$out/fabricbench" .)
exec "$out/fabricbench" -out "$out" "$@"
