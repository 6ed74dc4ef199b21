#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig9-campaign --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --steady 10
#
# Run it from the repository root. Build outputs, the Go build cache and
# the go command's own state stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
