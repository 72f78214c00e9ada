#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root
# of a checkout; every argument goes to the harness, for example
#
#   bash bench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
