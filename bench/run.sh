#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (binary and Go build
# cache both, so nothing is written outside the checkout) and runs it with
# the arguments given. Run from the root of the checkout.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"
