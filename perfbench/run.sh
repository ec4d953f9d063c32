#!/usr/bin/env bash
# Builds the farm benchmark from the sources of the checkout it is run from
# and runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload loopback-single --seed 1 --seconds 40 --trace 0
#
# The build cache, temporary files, the binary and the span dumps of traced
# runs stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-spans" "$@"
