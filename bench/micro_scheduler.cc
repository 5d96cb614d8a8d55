// Runtime costs: coroutine creation/resume, scheduler task dispatch
// throughput, and yield overhead — the mechanics behind the Exp 6 model
// comparison.
#include <benchmark/benchmark.h>

#include "runtime/scheduler.h"
#include "runtime/task.h"

namespace phoebe {
namespace {

TxnTask TrivialTask() { co_return Status::OK(); }

TxnTask YieldingTask(int yields) {
  for (int i = 0; i < yields; ++i) {
    co_await YieldWait(WaitKind::kXidLock, 0);
  }
  co_return Status::OK();
}

void BM_CoroutineCreateDestroy(benchmark::State& state) {
  for (auto _ : state) {
    TxnTask task = TrivialTask();
    benchmark::DoNotOptimize(task.valid());
  }
}
BENCHMARK(BM_CoroutineCreateDestroy);

void BM_CoroutineRunToCompletion(benchmark::State& state) {
  for (auto _ : state) {
    TxnTask task = TrivialTask();
    benchmark::DoNotOptimize(task.RunToCompletion().ok());
  }
}
BENCHMARK(BM_CoroutineRunToCompletion);

void BM_CoroutineYieldResume(benchmark::State& state) {
  // Cost of one suspend/resume pair (user-level context switch): this is
  // the lightweight switching the paper contrasts with kernel threads.
  TxnTask task = YieldingTask(1 << 30);
  task.Resume();  // reach first suspension
  for (auto _ : state) {
    task.Resume();
  }
}
BENCHMARK(BM_CoroutineYieldResume);

void BM_SchedulerDispatch(benchmark::State& state) {
  Scheduler::Options opts;
  opts.workers = 2;
  opts.slots_per_worker = 8;
  Scheduler sched(opts, {});
  sched.Start();
  uint64_t submitted = 0;
  for (auto _ : state) {
    sched.Submit([](TaskEnv*) { return TrivialTask(); });
    ++submitted;
  }
  while (sched.completed() < submitted) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  sched.Stop();
  state.SetItemsProcessed(static_cast<int64_t>(submitted));
}
BENCHMARK(BM_SchedulerDispatch);

void BM_ThreadContextSwitch(benchmark::State& state) {
  // Kernel-thread ping-pong for contrast with BM_CoroutineYieldResume.
  std::atomic<int> turn{0};
  std::atomic<bool> stop{false};
  std::thread other([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (turn.load(std::memory_order_acquire) == 1) {
        turn.store(0, std::memory_order_release);
      }
      std::this_thread::yield();
    }
  });
  for (auto _ : state) {
    turn.store(1, std::memory_order_release);
    while (turn.load(std::memory_order_acquire) == 1) {
      std::this_thread::yield();
    }
  }
  stop = true;
  other.join();
}
BENCHMARK(BM_ThreadContextSwitch);

}  // namespace
}  // namespace phoebe
