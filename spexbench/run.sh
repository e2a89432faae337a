#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources of the checkout it sits
# in and runs it from the checkout's root:
#
#   bash spexbench/run.sh --workload cold-eval --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays inside the
# checkout: the binary and the Go build cache under .bench_build/, run
# state under .bench_work/ (removed by the benchmark on exit). With the
# repository's sources missing the build fails and no result is printed.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/spexbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/spexbench" && go build -o "$out/spexbench" .) >&2
cd "$root"
exec "$out/spexbench" "$@"
