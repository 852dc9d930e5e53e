#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim-table5 --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, span dumps) stays under
# $CARGO_TARGET_DIR (default .bench_build) in the directory it is run from.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/laxbench" .) >&2
exec "$out/laxbench" -out "$out" "$@"
