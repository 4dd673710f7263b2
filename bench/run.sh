#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload solve-hot --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (binary, Go build cache, temporary
# files, the go command's own configuration and telemetry) stays under
# .bench_build at the checkout root; the toolchain is never upgraded and no
# module is ever downloaded.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$out/go-cache" "$out/go-mod" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$bench_dir" build -o "$out/lattolbench" .
exec "$out/lattolbench" "$@"
