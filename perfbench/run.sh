#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload explore-obj --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build (or $CARGO_TARGET_DIR when set): the Go build
# cache, the binary and the span dumps of traced runs. A tree without the
# parent module fails the build, and the script exits non-zero without a
# result line.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod
export TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -spans "$out/trace" "$@"
