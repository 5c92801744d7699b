#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build output, the Go build cache, and the
# run's scratch files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
