#!/usr/bin/env bash
# Builds the benchmark and its server from this checkout's sources, then
# runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload portfolio-read --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ (Go build cache included).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export TMPDIR="$out/tmp"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off
	go build -o "$out/bin/perfbench" ./cmd/perfbench
	go build -o "$out/bin/flowbenchd" ./cmd/flowbenchd
) >&2
exec "$out/bin/perfbench" --server "$out/bin/flowbenchd" --work "$out/work" "$@"
