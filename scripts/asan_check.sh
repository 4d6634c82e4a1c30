#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer check for the simulator hot
# paths: configure an ASan build tree (CMAKE_BUILD_TYPE=ASan, see
# CMakeLists.txt), build the batched- and count-simulator, dispatch,
# compile, lazy-compile and sampler test binaries, and run them under the
# sanitizers.  Registered as the tier-2 ctest target `asan_ubsan` and run
# by the tier-2 CI job (.github/workflows/ci.yml); also runnable by hand:
#
#   scripts/asan_check.sh [build-dir]     # default: ./build-asan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${POPS_ASAN_BUILD_DIR:-build-asan}}"
TARGETS=(test_batched_count_simulation test_count_simulation test_dispatch test_compile
         test_lazy_compile test_discrete)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=ASan
cmake --build "$BUILD_DIR" -j --target "${TARGETS[@]}"

# halt_on_error makes the first UBSan report fatal (UBSan otherwise prints
# and continues, and the test would pass); ASan always stops on an error.
export ASAN_OPTIONS="halt_on_error=1 detect_stack_use_after_return=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
for t in "${TARGETS[@]}"; do
  echo "== asan+ubsan: $t"
  "$BUILD_DIR/$t"
done
echo "asan_check: no memory errors or undefined behaviour reported"
