#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload settle --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout (Go build cache, temp dirs, binary, chain directories).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out" # the go command keeps telemetry and config under $HOME
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --data-dir "$out/data" "$@"
