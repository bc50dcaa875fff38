#!/usr/bin/env bash
# Builds the benchmark into .bench_build and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload clearing --seed 1 --seconds 60 --trace 0
#
# The Go build cache, temporary files and toolchain state stay under
# .bench_build, so the benchmark reads and writes only inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
