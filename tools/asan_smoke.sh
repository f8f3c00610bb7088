#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer smoke job, mirroring
# tools/tsan_smoke.sh for memory errors instead of races.
#
# Configures a dedicated build tree with -fsanitize=address,undefined,
# builds the serving/concurrency test binaries, and runs the Serve*,
# Router*, Store*, Cache*, Fault*, Crash*, ThreadPool* and Compute* suites
# under ASan/UBSan via ctest, plus Quant*/Tier* for the quantized codecs,
# the compressed cold tier and the mmap'd file view. Heap corruption,
# use-after-free (e.g. a retired model generation freed while an in-flight
# batch still reads it, or a weights file parsed past its mmap),
# out-of-bounds kernel or LZ-window indexing, or UB (signed overflow, bad
# shifts — the fp16 bit twiddling is all-shifts) aborts the run with a
# non-zero exit code.
#
#   tools/asan_smoke.sh [build-dir]   (default: build-asan next to the repo root)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  -DFKD_BUILD_BENCHMARKS=OFF \
  -DFKD_BUILD_EXAMPLES=OFF

cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target serve_test text_test fault_test crash_test compute_test \
           cache_test router_test net_test common_test quant_test

# detect_leaks=0: the shared test fixtures intentionally leak one static
# trained detector per process (train once, share across TESTs); leak
# checking would flag every such fixture instead of real bugs.
export ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R '^(Serve|Router|Store|Cache|Hash|Fault|Crash|ThreadPool|Compute|Net|LoadGen|Quant|Tier|RetryPolicy|Clock|VocabularyTest\.ConstLookups)'

echo "asan smoke: OK"
