#!/usr/bin/env bash
# ThreadSanitizer check for the sharded JIT, the parallel eager closure and
# the process-wide work-stealing executor: configure a TSan build tree
# (CMAKE_BUILD_TYPE=TSan, see CMakeLists.txt), build the
# concurrency-sensitive test binaries, and run them under the race
# detector.  Registered as the tier-2 ctest target `tsan_concurrency` and
# run by the tier-2 CI job (.github/workflows/ci.yml); also runnable by
# hand:
#
#   scripts/tsan_check.sh [build-dir]     # default: ./build-tsan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${POPS_TSAN_BUILD_DIR:-build-tsan}}"
TARGETS=(test_executor test_lazy_compile test_jit_concurrency test_trials)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=TSan
cmake --build "$BUILD_DIR" -j --target "${TARGETS[@]}"

# halt_on_error keeps a first race from scrolling away under gtest output;
# second_deadlock_stack improves lock-order reports from the sharded mutexes.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
for t in "${TARGETS[@]}"; do
  echo "== tsan: $t"
  "$BUILD_DIR/$t"
done
echo "tsan_check: no races reported"
