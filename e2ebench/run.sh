#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it:
#
#   bash e2ebench/run.sh --workload identify_http --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go build cache, temporary files, the binary, span dumps).
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/texid-e2ebench" .)
exec "$out/texid-e2ebench" "$@"
