#!/usr/bin/env bash
# Builds the ThreadSanitizer preset and runs the concurrency-heavy tests
# under it: the WAL pipeline (double-buffered appends, group commit
# wakeups, truncate races), and the MVCC stress suite. Usage:
#   scripts/run_tsan.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."

TESTS=(wal_test wal_pipeline_stress_test recovery_property_test checkpoint_test mvcc_stress_test fault_env_test crash_torture_test readonly_commit_test scheduler_stress_test node_test btree_test btree_model_test table_test txn_scenarios_test)

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target "${TESTS[@]}"

# tsan.supp whitelists the optimistic-lock-coupling reader paths (racy by
# design: version-validated, result discarded on conflict).
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1 suppressions=$PWD/scripts/tsan.supp}"
fail=0
for t in "${TESTS[@]}"; do
  echo "===== tsan: $t ====="
  if ! "build-tsan/tests/$t"; then
    fail=1
  fi
done
exit "$fail"
