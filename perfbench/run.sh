#!/usr/bin/env bash
# Builds lvf2d, libgen, liblint and the perfbench program from the tree,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --compare base-results change-results
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory (Go build cache included).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/lvf2d ./cmd/libgen ./cmd/liblint >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
