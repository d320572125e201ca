#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload core-rd50u --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build cache, binary, traces and scratch
# files all live under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
work=$out/perfbench
mkdir -p "$work/tmp"

export GOCACHE=$work/gocache GOPATH=$work/gopath GOTMPDIR=$work/tmp TMPDIR=$work/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" -out "$work" "$@"
