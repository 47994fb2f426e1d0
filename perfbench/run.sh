#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload paper_mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under .bench_build/perfbench in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/pctperf" .)
exec "$out/pctperf" "$@"
