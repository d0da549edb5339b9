#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload wan-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache,
# temporary files, the binary) stays under .bench_build in that root, and
# the toolchain is pinned to the local one with the module proxy off, so a
# run never reaches the network. Outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
