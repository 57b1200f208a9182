#!/usr/bin/env bash
# Builds relayd and the benchmark from this checkout's sources, then runs the
# benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every build product, Go cache and
# temporary file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off

go build -o "$out/relayd" ./cmd/relayd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out" "$@"
