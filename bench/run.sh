#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the root of the repository:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the trace file all go to .bench_build/
# under the current directory; nothing is fetched over the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
