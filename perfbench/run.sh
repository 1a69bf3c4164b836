#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.  Every
# build product and every store the benchmark writes stays under
# .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
