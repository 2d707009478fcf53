#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-loo --seed 0 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, temp
# files and the go command's config and telemetry directory all go under
# .bench_build/, so nothing is written outside the checkout, and the
# build works where $HOME and $TMPDIR are not writable. The build is pure
# Go (CGO_ENABLED=0), so it needs no C toolchain.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
# Link to a private name and rename, so a binary another invocation is
# running is never overwritten in place.
bin="$build/perfbench.$$"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
mv -f "$bin" "$build/perfbench"
exec "$build/perfbench" "$@"
