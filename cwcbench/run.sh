#!/usr/bin/env bash
# Builds the CWC benchmark from the sources of the checkout it sits in and
# runs it from the checkout root. Everything the build and the run write
# (Go build cache, binary, WAL segments, span files) lands in .bench_build/
# at the checkout root.
#
#   bash cwcbench/run.sh --workload fig12a-mix --seed 1 --seconds 30 --trace 0
#   bash cwcbench/run.sh --workload all
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off

go -C "$root/cwcbench" build -o "$out/cwcbench" . >&2

commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
exec "$out/cwcbench" -dir "$out" -commit "$commit" "$@"
