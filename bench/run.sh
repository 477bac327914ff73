#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it
# with the given flags, e.g.
#
#   bash bench/run.sh --workload paper-tables --seed 1 --seconds 35 --trace 0
#
# Every build artifact and temporary file stays under .bench_build/ at the
# checkout root; the harness makes no network requests beyond loopback.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$out/satbench" .) >&2
cd "$root"
exec "$out/satbench" "$@"
