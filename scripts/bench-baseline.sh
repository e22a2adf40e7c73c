#!/usr/bin/env bash
# Regenerate BENCH_baseline.json, the committed reference for the CI
# bench-compare regression gate. Run this ON THE CI RUNNER CLASS (or rely on
# the BenchmarkCalibration normalization for moderate machine differences)
# whenever the tier-1 benchmark set changes or a deliberate performance
# change shifts the baseline.
#
# Tier-1 benchmarks are the end-to-end per-algorithm runs plus the hot-path
# component suites of the BSP engine, the DESQ-DFS/COUNT miner and the pivot
# search — the code the paper's results depend on:
#
#   - root:               BenchmarkAlgorithms_N1/*, BenchmarkAlgorithms_T3/*,
#                         BenchmarkSpanOverhead/* (tracing-cost budget)
#   - internal/mapreduce: the shuffle/spill engine
#   - internal/miner:     the local miners (BenchmarkMineCount rides the flat
#                         candidate enumeration — a map-phase kernel)
#   - internal/pivot:     the pivot search, including BenchmarkPivotAnalyze_T3
#                         (grid and run-enumeration over the AMZN-F T3
#                         workload — the per-sequence D-SEQ map kernel)
#   - internal/fst:       compile and the flat simulation kernels
#                         (BenchmarkForEachRun is D-CAND's run walk)
#   - internal/nfa:       D-CAND's candidate NFAs: trie build, minimize,
#                         serialize (map side), deserialize, mine (reduce side)
#   - internal/dcand:     BenchmarkDCandMap_T3, the per-sequence D-CAND map
#                         kernel over the same AMZN-F T3 workload
#
# The map-phase kernels (BenchmarkPivotAnalyze*, BenchmarkAnalyze*,
# BenchmarkMineCount*, BenchmarkDCandMap*, BenchmarkForEachRun,
# BenchmarkBuilderAddPath, BenchmarkMinimize, BenchmarkSerialize) are called
# out in their own table section of the CI bench-compare step summary
# (benchcmp.FormatMarkdown).
#
# BenchmarkCalibration is recorded alongside them for machine-speed
# normalization; it is excluded from the gate's geomean.
#
# Environment pinning:
#   - GOMAXPROCS is pinned (both via the env var, which bounds the runtime's
#     background parallelism, and -cpu, which names the benchmarks) so
#     benchmark names carry the same "-2" suffix on every machine (benchgate
#     strips exactly one trailing "-N"; without a fixed -cpu, a single-core
#     recorder would emit suffix-less names that cannot be matched against a
#     multi-core runner's) and so scheduler parallelism cannot drift between
#     the recorder and the runner.
#   - -benchmem records B/op and allocs/op: the schema-2 baseline gates
#     allocations alongside time (allocation counts are machine-independent,
#     so no calibration applies to them).
#   - The spill and streaming shuffle knobs are explicitly disabled inside
#     the gated benchmarks themselves (benchOptions in bench_test.go), so the
#     baseline always measures the in-memory barrier path.
set -euo pipefail

cd "$(dirname "$0")/.."

benchtime=3x
count=5
export GOMAXPROCS=2
out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== running tier-1 benchmarks (-benchtime=$benchtime -count=$count -cpu 2 -benchmem, GOMAXPROCS=$GOMAXPROCS)"
go test -run '^$' -bench '^(BenchmarkAlgorithms_N1|BenchmarkAlgorithms_T3|BenchmarkCalibration|BenchmarkSpanOverhead)$' \
    -benchtime="$benchtime" -count="$count" -cpu 2 -benchmem . | tee "$out"
go test -run '^$' -bench . -benchtime="$benchtime" -count="$count" -cpu 2 -benchmem \
    ./internal/mapreduce ./internal/miner ./internal/pivot \
    ./internal/fst ./internal/nfa ./internal/dcand | tee -a "$out"

# Record the recording environment alongside the command so a future reader
# can judge whether a drift is machine or code: kernel, CPU model and count,
# and the pinned GOMAXPROCS (the Go version is recorded separately).
cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo '?')
cpu_model=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)
env_note="GOMAXPROCS=$GOMAXPROCS cpus=$cpus cpu=\"$cpu_model\" kernel=$(uname -sr)"

# The TCP shuffle-overlap benchmarks are wall-clock dominated (real sockets,
# three iterations per sample on a host that slows in spells) and their
# samples swing 2-3x between identical runs — 140-380 ms for streaming at one
# commit; they get their own wide per-benchmark gates instead of polluting the
# geomeans.
echo "== recording BENCH_baseline.json"
go run ./cmd/benchgate record \
    -command "scripts/bench-baseline.sh (go test -bench tier-1 -benchtime=$benchtime -count=$count -cpu 2 -benchmem; spill/stream knobs disabled; $env_note)" \
    -tolerance 'BenchmarkShuffleOverlapTCP/barrier=2.5' \
    -tolerance 'BenchmarkShuffleOverlapTCP/streaming=2.5' \
    <"$out"
