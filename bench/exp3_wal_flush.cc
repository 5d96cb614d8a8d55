// Exp 3 (Figure 7b): WAL flushing throughput (MB/s) over time under the
// parallel per-task-slot WAL design, plus the RFA ablation (--no-rfa
// reverts commits to waiting on the global flushed GSN). Use --wal-dir to
// place the log on a separate device, as the paper does.
#include "bench/bench_common.h"
#include "wal/wal_manager.h"

using namespace phoebe;
using namespace phoebe::bench;

namespace {

/// Plain-value snapshot of WalManager::PipelineStats (taken before the
/// instance is torn down).
struct PipelineSnapshot {
  uint64_t appends = 0;
  uint64_t records_flushed = 0;
  uint64_t inline_flushes = 0;
  uint64_t oversize_appends = 0;
  uint64_t commit_kicks = 0;
};

tpcc::DriverResult RunOne(const Flags& flags, bool rfa,
                          PipelineSnapshot* pipe) {
  DatabaseOptions opts = DefaultOptions(flags);
  opts.enable_rfa = rfa;
  std::string wal_dir = flags.Str("wal-dir", "");
  if (!wal_dir.empty()) opts.wal_dir = wal_dir + (rfa ? "/rfa" : "/norfa");
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));
  auto inst = SetupTpcc(std::string("exp3_") + (rfa ? "rfa" : "norfa"), opts,
                        DefaultScale(flags, warehouses));
  tpcc::DriverConfig cfg = DefaultDriver(flags);
  tpcc::DriverResult res = tpcc::RunTpcc(inst->workload.get(), cfg);
  if (pipe != nullptr && inst->db->wal() != nullptr) {
    const WalManager::PipelineStats& ps = inst->db->wal()->pipeline_stats();
    pipe->appends = ps.appends.load();
    pipe->records_flushed = ps.records_flushed.load();
    pipe->inline_flushes = ps.inline_flushes.load();
    pipe->oversize_appends = ps.oversize_appends.load();
    pipe->commit_kicks = ps.commit_kicks.load();
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool ablate = flags.Bool("ablate-rfa", true);

  printf("# Exp 3 (Fig 7b): WAL flush throughput over time (parallel "
         "per-slot writers)\n");
  PipelineSnapshot pipe;
  tpcc::DriverResult with_rfa = RunOne(flags, /*rfa=*/true, &pipe);
  printf("%-8s %-12s %-10s\n", "t(s)", "wal_MB/s", "tpmC");
  for (const auto& pt : with_rfa.series) {
    printf("%-8.1f %-12.2f %-10.0f\n", pt.t, pt.wal_mb_per_s, pt.tpmc);
  }
  printf("# avg: %.2f MB/s, tpmC=%.0f, wal_flushes=%llu\n",
         with_rfa.wal_mb_per_s, with_rfa.tpmc,
         static_cast<unsigned long long>(
             IoStats::Global().wal_flushes.load()));
  printf("# pipeline: appends=%llu flushed=%llu inline_flushes=%llu "
         "oversize=%llu commit_kicks=%llu\n",
         static_cast<unsigned long long>(pipe.appends),
         static_cast<unsigned long long>(pipe.records_flushed),
         static_cast<unsigned long long>(pipe.inline_flushes),
         static_cast<unsigned long long>(pipe.oversize_appends),
         static_cast<unsigned long long>(pipe.commit_kicks));

  if (ablate) {
    tpcc::DriverResult no_rfa = RunOne(flags, /*rfa=*/false, nullptr);
    printf("\n# RFA ablation (commits wait for the global flushed GSN)\n");
    printf("%-22s %-12s %-12s %-18s\n", "config", "wal_MB/s", "tpmC",
           "commit_wait(us)");
    printf("%-22s %-12.2f %-12.0f %-18.1f\n", "rfa=on",
           with_rfa.wal_mb_per_s, with_rfa.tpmc,
           with_rfa.avg_commit_wait_us);
    printf("%-22s %-12.2f %-12.0f %-18.1f\n", "rfa=off",
           no_rfa.wal_mb_per_s, no_rfa.tpmc, no_rfa.avg_commit_wait_us);
    printf("# rfa: %.2fx tpmC, %.2fx lower commit wait\n",
           no_rfa.tpmc > 0 ? with_rfa.tpmc / no_rfa.tpmc : 0.0,
           with_rfa.avg_commit_wait_us > 0
               ? no_rfa.avg_commit_wait_us / with_rfa.avg_commit_wait_us
               : 0.0);
  }
  return 0;
}
