#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "runtime/scheduler.h"
#include "runtime/task.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

// --- TxnTask coroutine basics -----------------------------------------------------

TxnTask SimpleTask(int* counter) {
  ++*counter;
  co_return Status::OK();
}

TxnTask YieldingTask(int* resumes, int yields) {
  Status st;
  for (int i = 0; i < yields; ++i) {
    ++*resumes;
    co_await YieldWait(WaitKind::kLatch, 0);
  }
  ++*resumes;
  co_return Status::OK();
}

TxnTask FailingTask() { co_return Status::Aborted("nope"); }

// NOTE: lambdas passed to Submit must NOT themselves be coroutines (their
// captures live in the lambda object, which dies before the task resumes).
// They call parameterized coroutine functions instead — same rule the TPC-C
// procedures follow.
TxnTask CountingTask(std::atomic<int>* done, bool expect_async) {
  ++*done;
  co_return Status::OK();
}

TxnTask SlotRecordingTask(std::mutex* mu, std::set<uint32_t>* slots,
                          uint32_t slot) {
  std::lock_guard<std::mutex> lk(*mu);
  slots->insert(slot);
  co_return Status::OK();
}

TxnTask OverlapTask(std::atomic<int>* active, std::atomic<int>* active_max) {
  int cur = active->fetch_add(1) + 1;
  int seen = active_max->load();
  while (cur > seen && !active_max->compare_exchange_weak(seen, cur)) {
  }
  for (int k = 0; k < 50; ++k) {
    co_await YieldWait(WaitKind::kXidLock, 0);
  }
  active->fetch_sub(1);
  co_return Status::OK();
}

TxnTask MaybeAbortTask(int i) {
  if (i % 2 == 0) co_return Status::Aborted("x");
  co_return Status::OK();
}

TEST(TxnTaskTest, RunsToCompletion) {
  int counter = 0;
  TxnTask task = SimpleTask(&counter);
  EXPECT_EQ(counter, 0);  // lazily started
  EXPECT_FALSE(task.done());
  ASSERT_OK(task.RunToCompletion());
  EXPECT_EQ(counter, 1);
  EXPECT_TRUE(task.done());
}

TEST(TxnTaskTest, YieldPublishesWaitKind) {
  int resumes = 0;
  TxnTask task = YieldingTask(&resumes, 2);
  task.Resume();
  EXPECT_FALSE(task.done());
  EXPECT_EQ(task.wait_kind(), WaitKind::kLatch);
  task.Resume();
  EXPECT_FALSE(task.done());
  task.Resume();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(resumes, 3);
  EXPECT_TRUE(task.result().ok());
}

TEST(TxnTaskTest, ResultPropagates) {
  TxnTask task = FailingTask();
  EXPECT_TRUE(task.RunToCompletion().IsAborted());
}

TEST(TxnTaskTest, DestroyUnfinishedIsSafe) {
  int resumes = 0;
  {
    TxnTask task = YieldingTask(&resumes, 100);
    task.Resume();  // leave suspended
  }
  EXPECT_EQ(resumes, 1);
}

// --- Scheduler ---------------------------------------------------------------------

TEST(SchedulerTest, RunsSubmittedTasks) {
  Scheduler::Options opts;
  opts.workers = 2;
  opts.slots_per_worker = 4;
  Scheduler sched(opts, {});
  sched.Start();
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    sched.Submit([&done](TaskEnv* env) {
      EXPECT_FALSE(env->ctx.synchronous);
      return CountingTask(&done, true);
    });
  }
  while (sched.completed() < 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_EQ(done.load(), 100);
  EXPECT_EQ(sched.committed(), 100u);
}

TEST(SchedulerTest, SlotsAreStable) {
  Scheduler::Options opts;
  opts.workers = 2;
  opts.slots_per_worker = 2;
  Scheduler sched(opts, {});
  sched.Start();
  std::mutex mu;
  std::set<uint32_t> slots_seen;
  for (int i = 0; i < 64; ++i) {
    sched.Submit([&](TaskEnv* env) {
      return SlotRecordingTask(&mu, &slots_seen, env->global_slot_id);
    });
  }
  while (sched.completed() < 64) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_LE(slots_seen.size(), 4u);
  for (uint32_t s : slots_seen) EXPECT_LT(s, 4u);
}

TEST(SchedulerTest, YieldingTasksInterleave) {
  Scheduler::Options opts;
  opts.workers = 1;
  opts.slots_per_worker = 4;
  Scheduler sched(opts, {});
  sched.Start();
  // 4 tasks on one worker, each yielding 50 times: requires interleaving on
  // the single worker thread.
  std::atomic<int> active_max{0};
  std::atomic<int> active{0};
  for (int i = 0; i < 4; ++i) {
    sched.Submit(
        [&](TaskEnv*) { return OverlapTask(&active, &active_max); });
  }
  while (sched.completed() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_GT(active_max.load(), 1) << "tasks should overlap on the worker";
}

TEST(SchedulerTest, AbortsCounted) {
  Scheduler::Options opts;
  opts.workers = 1;
  opts.slots_per_worker = 2;
  Scheduler sched(opts, {});
  sched.Start();
  for (int i = 0; i < 10; ++i) {
    sched.Submit([i](TaskEnv*) { return MaybeAbortTask(i); });
  }
  while (sched.completed() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_EQ(sched.committed(), 5u);
  EXPECT_EQ(sched.aborted(), 5u);
}

TEST(SchedulerTest, HousekeepingHooksRun) {
  std::atomic<int> swaps{0}, gcs{0}, sweeps{0};
  Scheduler::Hooks hooks;
  hooks.page_swap = [&](uint32_t, OpContext*) { swaps.fetch_add(1); };
  hooks.run_gc = [&](uint32_t) { gcs.fetch_add(1); };
  hooks.sweep = [&]() { sweeps.fetch_add(1); };
  Scheduler::Options opts;
  opts.workers = 1;  // the sweep hook runs on worker 0 only
  opts.slots_per_worker = 2;
  opts.gc_every_txns = 4;
  Scheduler sched(opts, hooks);
  sched.Start();
  for (int i = 0; i < 64; ++i) {
    sched.Submit([](TaskEnv*) { return MaybeAbortTask(1); });
  }
  while (sched.completed() < 64) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.Stop();
  EXPECT_GT(swaps.load(), 0);
  EXPECT_GT(gcs.load(), 0);
  EXPECT_GT(sweeps.load(), 0);
}

}  // namespace
}  // namespace phoebe
