#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the full test suite, then the
# perf/determinism smokes (hot-path allocation contract, the citywide
# golden stdout pin, the sharded-formation digest pin and its 4-shard
# speedup floor, the sim-as-a-service robustness pin, the trace-replay re-ingest
# pin, and the faulted shard-axis digest pin), then the event engine's,
# the scenario kernel's and the server's tests under AddressSanitizer +
# UBSan, then the shard engine and the
# differential fault fuzz under ThreadSanitizer. Everything a PR must keep
# green.
#
# Every ctest invocation carries a per-test timeout: the suite now
# exercises servers, watchdogs, and cancellation, and a regression there
# must fail the gate, not wedge it.
#
# Usage: scripts/check_tier1.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" --timeout 300)
"$BUILD_DIR"/bench/bench_microperf --smoke --json "$BUILD_DIR"/BENCH_hotpath.json
cmake -DEXE="$BUILD_DIR"/bench/ext_citywide -DARGS=--smoke \
  -DGOLDEN=data/golden/ext_citywide_smoke.txt -P cmake/compare_stdout.cmake
"$BUILD_DIR"/bench/ext_citywide --smoke --shards 1,2,4 --assert-shards --json "$BUILD_DIR"/BENCH_citywide_shard.json
(cd "$BUILD_DIR" && bench/serve_smoke --seeds 1000 --json BENCH_serve_smoke.json)
(cd "$BUILD_DIR" && bench/ext_trace_replay --smoke 1 --trace ../data/traces/sample_occupancy.csv --resilience-csv BENCH_trace_replay_resilience.csv --shards 1,2)

# Faulted shard smoke: the full fault taxonomy routed across shard widths
# must reproduce the serial engine's resilience digest (rerun determinism,
# shards=1 identity, width-invariant fault counts).
"$BUILD_DIR"/bench/ext_fault_resilience --shards 1,2,4

# Event engine and scenario kernel under AddressSanitizer +
# UndefinedBehaviorSanitizer: the event queue's near tier links its slot
# lists through slab indices, so an out-of-bounds or stale index must fail
# the gate, not corrupt a run; the medium's slot registry and grid cell
# lanes, which the spatial-index tests also poke through their test peer,
# must stay in bounds; the scenario kernel's objects (rigs, harnesses,
# recorders, injectors, fabric and testbeds) must outlive every use at
# every width, and the server must free what each request built. A
# dedicated tree builds only these tests and the hot-path contract.
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DSPIDER_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j --target test_sim test_sweep test_modelcheck \
  test_perf_hotpath test_shard test_fault_shard test_serve test_spatial_index
for t in test_sim test_sweep test_modelcheck test_perf_hotpath test_shard \
         test_serve test_spatial_index; do
  UBSAN_OPTIONS=halt_on_error=1 "$ASAN_DIR"/tests/$t
done
# The differential fault fuzz at the TSan leg's trimmed seed count.
SPIDER_FAULT_FUZZ_SEEDS=10 UBSAN_OPTIONS=halt_on_error=1 \
  "$ASAN_DIR"/tests/test_fault_shard

# Sharded engine under ThreadSanitizer: the lockstep coordinator, the
# mailbox parity protocol, and the formation fabric must be data-race
# free, not just deterministic. A dedicated TSan tree builds only the
# shard test (the rest of the suite runs TSan via SPIDER_SANITIZE=thread
# full builds when wanted).
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DSPIDER_SANITIZE=thread
cmake --build "$TSAN_DIR" -j --target test_shard test_fault_shard
"$TSAN_DIR"/tests/test_shard
# The differential fault fuzz at a trimmed seed count: TSan's ~10x
# slowdown makes 200 seeds too slow for the gate, and data races don't
# need many seeds to surface under the instrumented scheduler.
SPIDER_FAULT_FUZZ_SEEDS=10 "$TSAN_DIR"/tests/test_fault_shard

echo "tier-1: all green"
