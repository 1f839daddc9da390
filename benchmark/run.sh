#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload fleet_short --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh                       # every workload, seed 1
#   bash benchmark/run.sh compare A.txt -- B.txt
#
# The Go build cache, module cache, toolchain telemetry, temporary files
# and the binary all stay under .bench_build/ in the current directory, so
# nothing is read from or written to the user's home. The first build
# compiles the standard library into that cache; later builds only relink
# when a source file changed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off

(cd "$(dirname "$0")" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
