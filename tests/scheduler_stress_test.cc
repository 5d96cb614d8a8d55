// Stress suite for the decentralized scheduler (per-worker run queues,
// work stealing, batched parking/wakeup, in-flight-counter backpressure).
// Runs under the tsan and asan presets via scripts/run_tsan.sh and
// scripts/run_asan.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

TxnTask QuickTask(std::atomic<uint64_t>* done) {
  done->fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

TxnTask YieldingTask(std::atomic<uint64_t>* done, int yields) {
  for (int i = 0; i < yields; ++i) {
    co_await YieldWait(WaitKind::kXidLock, 0);
  }
  done->fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

TxnTask SeededTask(std::atomic<uint64_t>* done, uint64_t seed) {
  // Seed-dependent control flow: yield count and commit/abort vary.
  Random rng(seed);
  int yields = static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < yields; ++i) {
    co_await YieldWait(WaitKind::kLatch, 0);
  }
  done->fetch_add(1, std::memory_order_relaxed);
  if (rng.Uniform(4) == 0) co_return Status::Aborted("seeded abort");
  co_return Status::OK();
}

/// Yields until `release` is set: holds a slot for as long as the test wants.
TxnTask GatedTask(std::atomic<uint64_t>* done,
                  const std::atomic<bool>* release) {
  while (!release->load(std::memory_order_acquire)) {
    co_await YieldWait(WaitKind::kXidLock, 0);
  }
  done->fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

/// A closed-loop chain: exactly one of its tasks is queued or running at a
/// time, and each task's last action is to submit its successor from the
/// worker it runs on (the TPC-C terminal pattern).
struct Chain {
  Scheduler* sched = nullptr;
  std::atomic<uint64_t>* done = nullptr;
  Random rng{0};
};

TxnTask ChainTask(Chain* c) {
  int yields = static_cast<int>(c->rng.Uniform(4));
  for (int i = 0; i < yields; ++i) {
    co_await YieldWait(WaitKind::kLatch, 0);
  }
  bool abort = c->rng.Uniform(4) == 0;
  c->done->fetch_add(1, std::memory_order_relaxed);
  // Nothing touches the chain after this: the successor may start on
  // another worker as soon as it is queued.
  c->sched->Submit([c](TaskEnv*) { return ChainTask(c); });
  co_return abort ? Status::Aborted("chain abort") : Status::OK();
}

/// Waits until `sched.completed() == expect` with a generous deadline so a
/// lost task shows up as a test failure rather than a ctest hang.
void WaitCompleted(const Scheduler& sched, uint64_t expect,
                   int deadline_sec = 60) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(deadline_sec);
  while (sched.completed() < expect &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sched.completed(), expect);
}

// A fresh scheduler routes the i-th Submit to shard i % workers, so every
// long task lands on shard 0 and every other shard gets only quick tasks:
// the other workers drain their own shards and must then steal shard 0's
// backlog.
TEST(SchedulerStressTest, SkewedSubmitSingleShard) {
  Scheduler::Options opts;
  opts.workers = 4;
  opts.slots_per_worker = 4;
  Scheduler sched(opts, {});
  sched.Start();
  std::atomic<uint64_t> done{0};
  constexpr uint64_t kTasks = 2000;
  for (uint64_t i = 0; i < kTasks; ++i) {
    if (i % opts.workers == 0) {
      sched.Submit([&done](TaskEnv*) { return YieldingTask(&done, 100); });
    } else {
      sched.Submit([&done](TaskEnv*) { return QuickTask(&done); });
    }
  }
  WaitCompleted(sched, kTasks);
  SchedulerStats total = sched.TotalStats();
  sched.Stop();
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(total.submitted, kTasks);
  EXPECT_EQ(total.pulled + total.stolen, kTasks);
  EXPECT_GT(total.stolen, 0u) << "skewed load must trigger stealing";
  // Round-robin routing: every shard received the same number of submits.
  std::vector<SchedulerStats> per = sched.PerWorkerStats();
  ASSERT_EQ(per.size(), 4u);
  for (size_t w = 0; w < per.size(); ++w) {
    EXPECT_EQ(per[w].submitted, kTasks / opts.workers) << "shard " << w;
  }
}

// Worker 0's slots are held by gated tasks that finish only after every
// quick task has run, while round-robin routing keeps adding quick tasks to
// worker 0's shard: the idle workers must drain it by stealing. The gated
// tasks take shard 0's first positions (0 and 4); if another worker takes
// one of them first, that is a steal from shard 0 as well.
TEST(SchedulerStressTest, StealHeavyOneBusyWorker) {
  Scheduler::Options opts;
  opts.workers = 4;
  opts.slots_per_worker = 2;
  Scheduler sched(opts, {});
  sched.Start();
  std::atomic<uint64_t> gated_done{0};
  std::atomic<uint64_t> quick_done{0};
  std::atomic<bool> release{false};
  constexpr uint64_t kQuick = 1000;
  const uint64_t gated = opts.slots_per_worker;
  for (uint64_t i = 0; i < kQuick + gated; ++i) {
    if (i % opts.workers == 0 && i / opts.workers < gated) {
      sched.Submit([&](TaskEnv*) { return GatedTask(&gated_done, &release); });
    } else {
      sched.Submit([&](TaskEnv*) { return QuickTask(&quick_done); });
    }
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (quick_done.load() < kQuick &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(quick_done.load(), kQuick);
  release.store(true, std::memory_order_release);
  WaitCompleted(sched, kQuick + gated);
  SchedulerStats total = sched.TotalStats();
  std::vector<SchedulerStats> per = sched.PerWorkerStats();
  sched.Stop();
  EXPECT_EQ(gated_done.load(), gated);
  EXPECT_GT(total.stolen, 0u);
  uint64_t stolen_by_others = 0;
  for (size_t w = 1; w < per.size(); ++w) stolen_by_others += per[w].stolen;
  EXPECT_GT(stolen_by_others, 0u)
      << "idle workers must have stolen from the busy shard";
}

// A Stop() racing submitters blocked on backpressure must unblock them
// without deadlock, and every task that was accepted must still run.
TEST(SchedulerStressTest, StopDuringBlockedSubmit) {
  for (int round = 0; round < 20; ++round) {
    Scheduler::Options opts;
    opts.workers = 1;
    opts.slots_per_worker = 1;  // capacity 2: submitters block immediately
    Scheduler sched(opts, {});
    sched.Start();
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> attempted{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          attempted.fetch_add(1, std::memory_order_relaxed);
          sched.Submit(
              [&done](TaskEnv*) { return YieldingTask(&done, 10); });
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 3));
    sched.Stop();  // must not deadlock against the blocked Submits
    for (auto& t : submitters) t.join();
    // Everything that completed was counted exactly once; tasks rejected
    // after Stop() were dropped, never half-run.
    EXPECT_LE(sched.completed(), attempted.load());
    EXPECT_EQ(sched.completed(), sched.committed() + sched.aborted());
    EXPECT_LE(done.load(), attempted.load());
  }
}

// Determinism of the bookkeeping: across 100 seeded runs, every submitted
// task is completed exactly once and committed + aborted == completed.
TEST(SchedulerStressTest, SeededRunsCompleteExactly) {
  constexpr uint64_t kTasks = 200;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Scheduler::Options opts;
    opts.workers = 2 + seed % 3;
    opts.slots_per_worker = 2;
    Scheduler sched(opts, {});
    sched.Start();
    std::atomic<uint64_t> done{0};
    Random rng(seed);
    for (uint64_t i = 0; i < kTasks; ++i) {
      uint64_t task_seed = rng.Next();
      sched.Submit([&done, task_seed](TaskEnv*) {
        return SeededTask(&done, task_seed);
      });
    }
    WaitCompleted(sched, kTasks);
    SchedulerStats total = sched.TotalStats();
    sched.Stop();
    ASSERT_EQ(sched.completed(), kTasks) << "seed " << seed;
    ASSERT_EQ(done.load(), kTasks) << "seed " << seed;
    ASSERT_EQ(sched.committed() + sched.aborted(), kTasks)
        << "seed " << seed;
    ASSERT_EQ(total.submitted, kTasks) << "seed " << seed;
    ASSERT_EQ(total.pulled + total.stolen, kTasks) << "seed " << seed;
    // The in-flight bound holds: no shard ever held more than the global
    // capacity.
    ASSERT_LE(total.queue_depth_hwm, 2ull * sched.total_slots())
        << "seed " << seed;
  }
}

// Closed-loop chains, one per task slot, each re-submitting its successor
// from inside the worker: at most one task per chain is ever queued, so the
// in-worker Submit never waits for space (a blocked worker would stall the
// count below), and a Stop() in the middle of the chains returns, drains
// what was queued, and ends every chain.
TEST(SchedulerStressTest, ClosedLoopResubmitStops) {
  for (uint32_t round = 0; round < 12; ++round) {
    Scheduler::Options opts;
    opts.workers = 1 + round % 4;
    opts.slots_per_worker = 1 + round % 3;
    Scheduler sched(opts, {});
    const uint32_t chains = sched.total_slots();
    std::atomic<uint64_t> done{0};
    std::vector<Chain> chain(chains);
    sched.Start();
    for (uint32_t i = 0; i < chains; ++i) {
      chain[i].sched = &sched;
      chain[i].done = &done;
      chain[i].rng = Random(round * 1000 + i + 1);
      Chain* c = &chain[i];
      sched.Submit([c](TaskEnv*) { return ChainTask(c); });
    }
    const uint64_t target = 500 + 250 * (round % 4);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (sched.completed() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_GE(sched.completed(), target) << "round " << round;
    sched.Stop();
    SchedulerStats total = sched.TotalStats();
    const uint64_t completed = sched.completed();
    EXPECT_EQ(completed, sched.committed() + sched.aborted())
        << "round " << round;
    EXPECT_EQ(done.load(), completed) << "round " << round;
    // Every accepted successor ran: Stop() drains the queues.
    EXPECT_EQ(total.submitted, completed) << "round " << round;
    EXPECT_EQ(total.pulled + total.stolen, completed) << "round " << round;
    EXPECT_LE(total.queue_depth_hwm, chains) << "round " << round;
    // The chains are over: nothing runs or completes after Stop().
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(sched.completed(), completed) << "round " << round;
  }
}

}  // namespace
}  // namespace phoebe
