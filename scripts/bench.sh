#!/usr/bin/env bash
# Run the benchmark suite and emit a machine-readable summary.
#
# Usage:
#   scripts/bench.sh [count] [bench-regex] [packages...]
#
#   count        repetitions per benchmark (-count), default 5
#   bench-regex  -bench selector, default '.'
#   packages     go packages to benchmark, default './...'
#
# Raw `go test -bench` output streams to stderr as it arrives and is kept in
# BENCH_<date>.txt; the aggregated summary (mean/min/max ns/op, B/op,
# allocs/op per benchmark) lands in BENCH_<date>.json via scripts/benchjson.
#
# A focused run (non-default bench-regex or package list) writes
# BENCH_<date>-partial.{txt,json} instead, so quick local iterations never
# overwrite the full-suite artifact the baseline is regenerated from.
#
# Cluster-path benchmarks: BenchmarkClusterForwardHit (cross-node cache hit —
# request enters the non-owner, forwarded over loopback, relayed back; the
# delta to BenchmarkServeSolveCached is the forward hop) and
# BenchmarkClientPostRaw (lattolclient's per-call overhead: one exchange).
# Both boot real HTTP listeners, so timings carry loopback noise; CI gates
# them through the usual benchdiff thresholds. Focused run:
#
#   bash scripts/bench.sh 5 'ClusterForwardHit|ClientPostRaw' .
#
# HTTP-boundary and encoding benchmarks: BenchmarkServeHTTPSolveCached and
# BenchmarkServeHTTPBatchCached (the ServeSolveCached / ServeBatchCached cache
# hits driven through Server.Handler() in process — their delta to those is
# the HTTP and wire layer) and BenchmarkWireEncode/{solve,tolerance,batch32,
# sweep18,plan} (the reflection-free response encoder on bodies the server
# wrote; 0 allocs/op in steady state). Focused run:
#
#   bash scripts/bench.sh 5 'ServeHTTP|WireEncode' .
#
# Request decoding: BenchmarkWireDecode/{solve,plan,sweep,batch32,batchresp6}
# runs each body twice, through ParseWire (…/parse, the reflection-free
# decoder) and through the encoding/json decode it replaces (…/json);
# batchresp6 is a peer's answer to a 6-item sub-batch. Focused run:
#
#   bash scripts/bench.sh 5 'WireDecode|ServeHTTPBatch' .
#
# Model elaboration and batch sharing: BenchmarkBuildModelK4 and
# BenchmarkBuildModelK10 (mms.Build at the Table 1 size and at 10×10; 8
# allocs/op at any K) and BenchmarkSolveBatchSweepItems (the 72 items of an
# 18-point p_remote /v1/sweep — 37 distinct systems over 19 geometries — as
# Config items on a reused workspace, so it times elaboration, duplicate
# resolution and the kernel together). Focused run:
#
#   bash scripts/bench.sh 5 'BuildModel|SolveBatchSweepItems' .
#
# Replication-path benchmarks: BenchmarkReplicateSingle (one reset-and-replay
# replication through a reused Replicator, per engine), BenchmarkReplicate
# (the parallel runner at 1 vs 8 workers on a fixed 16-replication budget —
# the timing ratio is the parallel speedup, honest only on a multi-core host)
# and BenchmarkDESRng (the engine's inline RNG draws). Focused run:
#
#   bash scripts/bench.sh 5 'Replicate|DESRng' . ./internal/des
#
# Baseline flow: the committed BENCH_BASELINE.json gates CI through
# scripts/benchdiff. When a PR adds or retires benchmarks, there is no need
# to regenerate the baseline in the same PR — CI compares with `benchdiff
# -new-ok`, which accepts set drift while still gating the timings of every
# benchmark both sides share. Regenerate once the set settles (or after an
# intentional perf change):
#
#   bash scripts/bench.sh && mv "BENCH_$(date +%Y-%m-%d).json" BENCH_BASELINE.json
#
# A local run without -new-ok (`go run ./scripts/benchdiff BENCH_BASELINE.json
# BENCH_<date>.json`) fails on any drift — use that to check a regenerated
# baseline really covers the full suite.
set -euo pipefail

cd "$(dirname "$0")/.."

count="${1:-5}"
bench="${2:-.}"
shift $(( $# > 2 ? 2 : $# )) || true
pkgs=("${@:-./...}")

case "${count}" in
    ''|*[!0-9]*) echo "bench.sh: count must be a positive integer, got '${count}'" >&2; exit 2 ;;
esac

suffix=""
if [[ "${bench}" != "." || "${pkgs[*]}" != "./..." ]]; then
    suffix="-partial"
fi

date_tag="$(date +%Y-%m-%d)"
raw="BENCH_${date_tag}${suffix}.txt"
json="BENCH_${date_tag}${suffix}.json"

echo "benchmarking ${pkgs[*]} (bench='${bench}', count=${count}) -> ${json}" >&2
go test -run '^$' -bench "${bench}" -benchmem -count "${count}" "${pkgs[@]}" | tee "${raw}" >&2

if ! go run ./scripts/benchjson < "${raw}" > "${json}"; then
    rm -f "${json}"
    echo "bench.sh: no benchmark results to summarize for bench='${bench}' in ${pkgs[*]}; raw output kept in ${raw}" >&2
    exit 1
fi
echo "wrote ${raw} and ${json}" >&2
