#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload intra-fig9 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary CPU profiles) stays under
# .bench_build/ in the current directory, and the toolchain is pinned to
# the local one with the module proxy off, so no step reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"

go -C "$root/bench" build -o "$out/hicbench" .
exec "$out/hicbench" "$@"
