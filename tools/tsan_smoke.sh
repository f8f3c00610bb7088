#!/usr/bin/env bash
# ThreadSanitizer smoke job for the serving engine.
#
# Configures a dedicated build tree with -fsanitize=thread, builds the
# concurrency-sensitive test binaries, and runs every Serve*, Router*,
# Store*, Cache*, Fault*, Crash*, ThreadPool* and Compute* suite (plus the
# vocabulary concurrency test) under TSan via ctest. The Compute* suites
# exercise the shared intra-op pool from kernel fan-out, multi-width
# resizes, and the train-while-serve case where trainer and serving workers
# submit chunks concurrently; Router* covers the hot-swap stress (Submit
# racing Publish across 10 live swaps) and Cache* the sharded LRU under
# concurrent readers/writers. The observability suites (Histogram*,
# FlightRecorder*, StatsExporter*, concurrent registry updates) prove the
# lock-free instrument paths are race-free: many writer threads against a
# concurrent snapshot/export reader. The Net*/LoadGen* suites run the epoll
# front end (event loops, the control thread, client threads, and engine
# workers pushing results into connection buffers through completion
# callbacks) and the multi-connection load generator under TSan;
# Serve*/Router* include the callback suites (exactly-once on every
# resolution path, re-entrant cache hits); NetClient*/NetChaos* add the
# resilient client's I/O thread (submitters racing retries/hedges/timeouts)
# and the fault-injected socket paths, and Quarantine* races the health
# monitor's quarantine/reinstate transitions against live Submits. The
# Quant*/Tier* suites cover the quantized codecs and the compressed cold
# tier (including the 1-vs-4-thread determinism cases), and Budget* the
# memory-budgeted store's demote/promote transitions — including the
# hot-swap stress replayed under a tight budget. Any data race aborts the
# run with a non-zero exit code.
#
#   tools/tsan_smoke.sh [build-dir]   (default: build-tsan next to the repo root)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-tsan}"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DFKD_BUILD_BENCHMARKS=OFF \
  -DFKD_BUILD_EXAMPLES=OFF

cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target serve_test text_test fault_test crash_test compute_test \
           cache_test router_test obs_test net_test common_test quant_test

# halt_on_error: fail the job on the first race instead of logging past it.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R '^(Serve|Router|Store|Cache|ConsistentHash|Fault|Crash|ThreadPool|Compute|Histogram|FlightRecorder|StatsExporter|Net|LoadGen|Quarantine|Quant|Tier|Budget|RetryPolicy|HedgeTracker|Clock|RegistryTest\.Concurrent|VocabularyTest\.ConstLookups)'

echo "tsan smoke: OK"
