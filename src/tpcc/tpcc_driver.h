#ifndef PHOEBE_TPCC_TPCC_DRIVER_H_
#define PHOEBE_TPCC_TPCC_DRIVER_H_

#include <string>
#include <vector>

#include "tpcc/tpcc_txns.h"

namespace phoebe {
namespace tpcc {

/// Driver configuration (HammerDB-TPROC-C style: one closed-loop terminal
/// per task slot, no keying/think times; the standard 45/43/4/4/4 mix, with
/// StockLevel taking whatever the other four percentages leave).
struct DriverConfig {
  double seconds = 5.0;
  double warmup_seconds = 0.5;
  /// Thread execution model instead of the coroutine pool (Exp 6): one OS
  /// thread per task slot.
  bool thread_model = false;
  /// Workload affinity: each task slot is bound to a home warehouse
  /// (worker-to-warehouse binding, enabled by default in the paper).
  bool affinity = true;
  bool pin_workers = false;
  uint64_t seed = 42;
  int pct_new_order = 45;
  int pct_payment = 43;
  int pct_order_status = 4;
  int pct_delivery = 4;
  /// Bounded re-execution of system-aborted transactions (deadlock timeout,
  /// write-write conflict) with jittered exponential backoff between
  /// attempts. User-initiated aborts (the 1% NewOrder rollback) are never
  /// retried. 0 disables retries.
  uint32_t max_retries = 5;
};

struct SeriesPoint {
  double t = 0;  // seconds since measurement start
  double tpmc = 0;
  double tpm = 0;
  double wal_mb_per_s = 0;
  double data_read_mb_per_s = 0;
  double data_write_mb_per_s = 0;
};

struct DriverResult {
  double seconds = 0;
  uint64_t commits = 0;
  uint64_t new_order_commits = 0;
  uint64_t user_aborts = 0;
  uint64_t sys_aborts = 0;
  /// System-aborted attempts that were re-executed by the driver.
  uint64_t retries = 0;
  double tpm = 0;
  double tpmc = 0;
  double wal_mb_per_s = 0;
  /// Mean time a committing transaction spent waiting for durability.
  double avg_commit_wait_us = 0;
  /// Per-second samples of the measured window (Exp 3/4 plots).
  std::vector<SeriesPoint> series;

  /// Scheduler dispatch counters (coroutine model only; empty per-worker
  /// vector in the thread model).
  SchedulerStats sched;
  std::vector<SchedulerStats> sched_per_worker;

  /// "#RECOVERY ..." diagnostic from the database this run started on.
  std::string recovery_line;

  /// Allocation profile of the measured window (whole process, all txn
  /// types; Profiler alloc tracking is on for the window only). The
  /// "#ALLOC" summary line reports the per-committed-transaction rates.
  uint64_t heap_allocs = 0;
  uint64_t heap_bytes = 0;
  uint64_t arena_bytes = 0;
  double heap_allocs_per_txn = 0;
  double heap_bytes_per_txn = 0;
  double arena_bytes_per_txn = 0;

  std::string Summary() const;
};

/// Runs the TPC-C mix against `workload` for the configured duration, one
/// closed-loop terminal per task slot (workers x slots_per_worker) in
/// either execution model.
DriverResult RunTpcc(Workload* workload, const DriverConfig& config);

/// TPC-C consistency checks (clause 3.3.2.1-3.3.2.4): W_YTD = sum(D_YTD);
/// D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID); order/new-order/order-line
/// cardinality invariants. Returns OK when all hold.
Status CheckConsistency(Workload* workload);

}  // namespace tpcc
}  // namespace phoebe

#endif  // PHOEBE_TPCC_TPCC_DRIVER_H_
