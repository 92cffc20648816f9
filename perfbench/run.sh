#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it from the root of
# the checkout, passing every argument through:
#
#   bash perfbench/run.sh --workload predictive-128 --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other build byproduct stay in
# .bench_build/ under the checkout; nothing is fetched (GOPROXY=off, the
# module has no dependencies outside this repository).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
