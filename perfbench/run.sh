#!/usr/bin/env bash
# Builds the rknn binary and the benchmark from the checkout this script sits
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fct-serve-read --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go caches included). Run it from the checkout root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

if [[ ! -f go.mod || ! -d cmd/rknn ]]; then
	echo "run.sh: no rknn source here; run it from the repository root" >&2
	exit 2
fi
go build -o "$out/bin/rknn" ./cmd/rknn
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -rknn "$out/bin/rknn" -work "$out/perfbench" "$@"
