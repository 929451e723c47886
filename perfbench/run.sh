#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload exec-steady --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, binary,
# trace files, scratch stores) stays under .bench_build/ in the current
# directory.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

(
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
	export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod GOTELEMETRY=off
	go -C perfbench build -o "$out/perfbench" .
)

exec "$out/perfbench" "$@"
