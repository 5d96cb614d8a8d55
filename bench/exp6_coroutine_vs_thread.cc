// Exp 6 (Figure 11): co-routine pool vs thread-per-slot execution at the
// same logical concurrency. The paper runs 100 workers x 32 slots against
// 3200 threads; this bench keeps <workers x slots> equal to the thread
// count. Affinity is off in both models, matching the paper.
#include "bench/bench_common.h"

using namespace phoebe;
using namespace phoebe::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int warehouses = static_cast<int>(flags.Int("warehouses", 2));
  uint32_t workers = static_cast<uint32_t>(flags.Int("workers", 2));
  uint32_t slots = static_cast<uint32_t>(flags.Int("slots", 128));
  uint32_t concurrency = workers * slots;

  printf("# Exp 6 (Fig 11): coroutine model (%u workers x %u slots) vs "
         "thread model (%u threads)\n", workers, slots, concurrency);
  printf("%-12s %-12s %-12s %-10s\n", "model", "tpmC", "tpm", "aborts");

  double coro_tpm = 0, thread_tpm = 0;
  {
    DatabaseOptions opts = DefaultOptions(flags);
    opts.workers = workers;
    opts.slots_per_worker = slots;
    auto inst = SetupTpcc("exp6_coro", opts, DefaultScale(flags, warehouses));
    tpcc::DriverConfig cfg = DefaultDriver(flags);
    cfg.affinity = false;  // paper: affinity disabled for this experiment
    tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);
    coro_tpm = r.tpm;
    printf("%-12s %-12.0f %-12.0f %-10llu\n", "coroutine", r.tpmc, r.tpm,
           static_cast<unsigned long long>(r.user_aborts + r.sys_aborts));
    printf("#SCHED workers=%u tpmC=%.0f tpm=%.0f %s\n", workers, r.tpmc,
           r.tpm, r.sched.ToString().c_str());
    fflush(stdout);
  }
  {
    DatabaseOptions opts = DefaultOptions(flags);
    // Thread model: one slot per OS thread; slots/arenas/WAL writers sized
    // for `concurrency` threads.
    opts.workers = 1;
    opts.slots_per_worker = concurrency;
    auto inst =
        SetupTpcc("exp6_thread", opts, DefaultScale(flags, warehouses));
    tpcc::DriverConfig cfg = DefaultDriver(flags);
    cfg.affinity = false;
    cfg.thread_model = true;
    tpcc::DriverResult r = tpcc::RunTpcc(inst->workload.get(), cfg);
    thread_tpm = r.tpm;
    printf("%-12s %-12.0f %-12.0f %-10llu\n", "thread", r.tpmc, r.tpm,
           static_cast<unsigned long long>(r.user_aborts + r.sys_aborts));
  }
  if (thread_tpm > 0) {
    printf("# coroutine/thread speedup: %.2fx\n", coro_tpm / thread_tpm);
  }
  return 0;
}
