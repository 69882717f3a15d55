#!/usr/bin/env bash
# Builds the hogperf benchmark from this checkout and runs it; every argument
# is passed through. Run it from the repository root:
#
#   bash hogperf/run.sh --workload grid-data --seed 1 --seconds 38 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/hogperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/hogperf" && go build -o "$out/hogperf" .) >&2
cd "$root"
exec "$out/hogperf" "$@"
