#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload corpus-clean --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# stay under .bench_build/ in that root; no network access is needed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
