#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of this repository:
#
#   bash perfbench/run.sh --workload trace-serve --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, span JSON and state directories.
set -euo pipefail

if [[ ! -f go.mod ]] || ! grep -qx 'module cleo' go.mod; then
	echo "perfbench: no go.mod of module cleo here; run from the root of a checkout" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
