#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run in
# and runs one workload, e.g. from the repository root:
#
#   bash benchmark/run.sh --workload serve_miss --seed 7 --seconds 20 --trace 0
#
# The binary, every Go cache and the go command's own configuration
# directory live under .bench_build/ in the working directory, so nothing is
# written outside the checkout. The build is incremental: only the first run
# in a fresh checkout compiles everything.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
