#!/usr/bin/env bash
# Builds the benchmark from source and execs it: the Go toolchain is the
# only process besides the benchmark itself, and it has exited before the
# benchmark starts. Everything the build writes (binary, build cache,
# the toolchain's work directory) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" --out-dir "$out" "$@"
