#ifndef PHOEBE_RUNTIME_SCHEDULER_H_
#define PHOEBE_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "runtime/task.h"
#include "storage/op_context.h"

namespace phoebe {

/// Per-task execution environment: the slot's OpContext plus identities.
/// global_slot_id doubles as the WAL-writer id and UNDO-arena id.
struct TaskEnv {
  OpContext ctx;
  uint32_t global_slot_id = 0;
  uint32_t worker_id = 0;
};

/// Pins the calling thread to CPU `index % hardware_concurrency()` (Linux
/// only; elsewhere a no-op). Workers and thread-model terminals use it.
void PinCurrentThread(uint32_t index);

/// A transaction closure: invoked once on a free task slot, producing the
/// coroutine to drive.
using TaskFn = std::function<TxnTask(TaskEnv*)>;

/// Per-worker dispatch counters (Section 7.1 scaled past a single queue).
/// All counters are monotonic; a snapshot taken while the scheduler runs is
/// approximate but tear-free (each field is an independent relaxed atomic in
/// the shard).
struct SchedulerStats {
  uint64_t submitted = 0;          // tasks enqueued to this worker's shard
  uint64_t pulled = 0;             // tasks taken from the own run queue
  uint64_t stolen = 0;             // tasks stolen from other workers
  uint64_t steal_fail_probes = 0;  // victim probes that yielded nothing
  uint64_t parks = 0;              // times the worker blocked on its condvar
  uint64_t spurious_wakeups = 0;   // parks that ended with no work available
  uint64_t queue_depth_hwm = 0;    // high-water mark of the shard queue depth

  void Add(const SchedulerStats& o);
  std::string ToString() const;
};

/// The co-routine pool runtime with the pull-based smart scheduler
/// (Section 7.1), decentralized:
///   - every worker owns a run-queue shard; Submit routes round-robin via a
///     relaxed atomic cursor;
///   - workers drain their own queue first, then steal half-batches from a
///     randomly probed victim, and only then park on a per-worker condvar
///     with an exponential spin-then-park idle policy;
///   - wakeups are conditional: a submit notifies only when the target
///     worker is actually parked (overloaded shards additionally
///     kick one parked sibling so stealing starts promptly);
///   - backpressure is a global in-flight counter (no central queue mutex);
///     a Stop() racing a blocked Submit always unblocks the submitter;
///   - yields are classified by urgency: high (latch spins, async reads)
///     pauses new-task intake until drained; low (tuple/XID locks, commit
///     flush waits) does not block pulling or stealing;
///   - per-worker housekeeping hooks run page swaps (own buffer partition)
///     and GC (own slots' UNDO arenas) — Section 7.1's dedicated slots.
class Scheduler {
 public:
  struct Options {
    uint32_t workers = 4;
    uint32_t slots_per_worker = 8;
    bool pin_workers = false;   // CPU affinity (workload affinity in Exp 1)
    /// Run GC housekeeping every N completed transactions per worker.
    uint32_t gc_every_txns = 64;
  };

  struct Hooks {
    /// Page-swap housekeeping for the worker's buffer partition.
    std::function<void(uint32_t worker_id, OpContext* ctx)> page_swap;
    /// UNDO GC for one global slot.
    std::function<void(uint32_t global_slot_id)> run_gc;
    /// Periodic global sweep (twin tables, epoch advance); worker 0 only.
    std::function<void()> sweep;
  };

  Scheduler(const Options& options, Hooks hooks);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Starts the worker threads.
  void Start();

  /// Stops accepting work, drains queued and running tasks, joins workers.
  /// Unblocks any Submit currently waiting on backpressure.
  void Stop();

  /// Enqueues a transaction closure on the next round-robin shard: on a
  /// fresh scheduler, the i-th Submit goes to shard i % workers. Applies
  /// backpressure: blocks while 2x total slots are queued. Returns without
  /// enqueueing when the scheduler is stopping.
  void Submit(TaskFn fn);

  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  uint64_t aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }
  uint32_t total_slots() const {
    return options_.workers * options_.slots_per_worker;
  }
  const Options& options() const { return options_; }

  /// Snapshot of one worker's dispatch counters / of all workers / summed.
  SchedulerStats WorkerStats(uint32_t worker_id) const;
  std::vector<SchedulerStats> PerWorkerStats() const;
  SchedulerStats TotalStats() const;

 private:
  enum class SlotState : uint8_t {
    kEmpty = 0,
    kReady = 1,     // resume on next pass
    kWaitIo = 2,    // resume when ctx.load completes (high urgency)
    kWaitXid = 3,   // resume on poll; low urgency
    kWaitFlush = 4, // commit flush poll; low urgency
  };

  struct Slot {
    TxnTask task;
    TaskEnv env;
    SlotState state = SlotState::kEmpty;
  };

  /// One worker's run-queue shard. Padded to its own cache line so the
  /// submit cursor's round-robin stores don't false-share steal probes.
  struct alignas(64) WorkerShard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<TaskFn> queue;  // guarded by mu
    /// True while the worker blocks on cv; written under mu, read lock-free
    /// by submitters deciding whether a notify syscall is needed.
    std::atomic<bool> parked{false};
    // Stats counters: relaxed atomics so live snapshots are tear-free.
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> pulled{0};
    std::atomic<uint64_t> stolen{0};
    std::atomic<uint64_t> steal_fail_probes{0};
    std::atomic<uint64_t> parks{0};
    std::atomic<uint64_t> spurious_wakeups{0};
    std::atomic<uint64_t> queue_depth_hwm{0};
  };

  enum class EnqueueResult { kOk, kFull, kStopped };

  void WorkerMain(uint32_t worker_id);
  /// Resumes the slot's task; returns true if the task completed.
  bool ResumeSlot(Slot& slot);

  uint32_t NextShard() {
    return cursor_.fetch_add(1, std::memory_order_relaxed) % options_.workers;
  }
  uint64_t QueueCapacity() const { return 2ull * total_slots(); }

  /// Reserves in-flight capacity and pushes onto shard `w`. kFull when the
  /// bound is hit (caller waits for space), kStopped when shutting down.
  EnqueueResult EnqueueTo(uint32_t w, TaskFn& fn);
  /// Blocks until capacity frees up or Stop(); false on stop.
  bool WaitForSpace();
  /// Wakes blocked submitters if any are waiting on backpressure.
  void NotifySpace();
  /// Notifies shard `w` if its worker is parked; when the shard queue runs
  /// deep, additionally kicks one parked sibling to start stealing.
  void WakeWorker(uint32_t w, size_t depth_after_push);
  void WakeAnyParked(uint32_t except);

  /// Moves up to `max` tasks from the own queue into `out`.
  size_t PopLocal(WorkerShard& sh, size_t max, std::vector<TaskFn>* out);
  /// Probes victims (random start, linear scan, try-lock) and steals up to
  /// half of the first non-empty victim's queue, capped at `max`.
  size_t StealBatch(uint32_t self, size_t max, Random* rng,
                    std::vector<TaskFn>* out);
  /// Parks on the worker's condvar for at most `park_us`; returns true when
  /// woken with work (own queue non-empty or stopping).
  bool ParkIdle(uint32_t worker_id, uint32_t park_us);

  Options options_;
  Hooks hooks_;

  std::vector<std::unique_ptr<WorkerShard>> shards_;
  std::atomic<uint32_t> cursor_{0};

  /// Tasks sitting in shard queues (reserved by submitters before the push;
  /// released by workers after the pop). seq_cst at the submit/stop/drain
  /// edges — see DESIGN.md §4e for the ordering argument.
  std::atomic<uint64_t> queued_{0};
  std::atomic<bool> stopping_{false};

  /// Backpressure waiters (bounded in-flight gate). The condvar wait uses a
  /// timeout backstop, so a missed notify delays a submitter but can never
  /// deadlock it against Stop().
  std::mutex space_mu_;
  std::condition_variable space_cv_;
  std::atomic<uint32_t> space_waiters_{0};

  std::vector<std::thread> threads_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<bool> started_{false};
};

}  // namespace phoebe

#endif  // PHOEBE_RUNTIME_SCHEDULER_H_
