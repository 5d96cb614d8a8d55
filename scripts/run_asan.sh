#!/usr/bin/env bash
# Builds the Address+UBSanitizer preset and runs the I/O, fault-injection,
# crash-recovery and freeze-race suites under it: these exercise error paths
# (injected I/O failures, torn WAL tails, quarantined pages, fail-stop
# teardown) and tier moves where use-after-free and leaks like to hide. Usage:
#   scripts/run_asan.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."

TESTS=(io_test wal_test fault_env_test recovery_property_test checkpoint_test crash_torture_test freeze_stress_test readonly_commit_test scheduler_stress_test codec_fuzz_test schema_test storage_test table_test node_test btree_test btree_model_test txn_scenarios_test)

cmake --preset asan
cmake --build --preset asan -j "$(nproc)" --target "${TESTS[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
fail=0
for t in "${TESTS[@]}"; do
  echo "===== asan: $t ====="
  if ! "build-asan/tests/$t"; then
    fail=1
  fi
done
exit "$fail"
