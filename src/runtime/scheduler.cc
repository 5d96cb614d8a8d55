#include "runtime/scheduler.h"

#include <algorithm>
#include <cstdio>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace phoebe {

namespace {

// Idle policy: re-probe the queues kIdleSpinRounds times (yielding between
// rounds) before parking; park durations double from kMinParkUs up to
// kMaxParkUs. The cap keeps parked workers probing for steal opportunities
// a few hundred times per second, which bounds how long a skewed shard can
// go unnoticed while costing nothing measurable when truly idle.
constexpr uint64_t kIdleSpinRounds = 16;
constexpr uint32_t kMinParkUs = 50;
constexpr uint32_t kMaxParkUs = 1600;

}  // namespace

void PinCurrentThread(uint32_t index) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % std::thread::hardware_concurrency(), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

void SchedulerStats::Add(const SchedulerStats& o) {
  submitted += o.submitted;
  pulled += o.pulled;
  stolen += o.stolen;
  steal_fail_probes += o.steal_fail_probes;
  parks += o.parks;
  spurious_wakeups += o.spurious_wakeups;
  queue_depth_hwm = std::max(queue_depth_hwm, o.queue_depth_hwm);
}

std::string SchedulerStats::ToString() const {
  char buf[192];
  snprintf(buf, sizeof(buf),
           "submitted=%llu pulled=%llu stolen=%llu steal_fails=%llu "
           "parks=%llu spurious=%llu qhwm=%llu",
           static_cast<unsigned long long>(submitted),
           static_cast<unsigned long long>(pulled),
           static_cast<unsigned long long>(stolen),
           static_cast<unsigned long long>(steal_fail_probes),
           static_cast<unsigned long long>(parks),
           static_cast<unsigned long long>(spurious_wakeups),
           static_cast<unsigned long long>(queue_depth_hwm));
  return buf;
}

Scheduler::Scheduler(const Options& options, Hooks hooks)
    : options_(options), hooks_(std::move(hooks)) {
  shards_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    shards_.push_back(std::make_unique<WorkerShard>());
  }
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::Start() {
  if (started_.exchange(true)) return;
  threads_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    threads_.emplace_back([this, w] { WorkerMain(w); });
  }
}

void Scheduler::Stop() {
  if (stopping_.exchange(true, std::memory_order_seq_cst)) return;
  // Unblock backpressured submitters and parked workers. The empty
  // lock/unlock pairs order the notify after any in-progress wait setup.
  {
    std::lock_guard<std::mutex> lk(space_mu_);
  }
  space_cv_.notify_all();
  for (auto& sh : shards_) {
    {
      std::lock_guard<std::mutex> lk(sh->mu);
    }
    sh->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

Scheduler::EnqueueResult Scheduler::EnqueueTo(uint32_t w, TaskFn& fn) {
  // Reserve an in-flight slot first. The seq_cst increment pairs with the
  // seq_cst stopping_ store in Stop() and the stopping_/queued_ loads on
  // the worker drain path: if this submitter observes stopping_ == false
  // below, its increment precedes Stop() in the total order, so no worker
  // can observe (stopping_ && queued_ == 0) and exit before the task is
  // either executed or explicitly un-reserved here.
  uint64_t cur = queued_.load(std::memory_order_relaxed);
  const uint64_t cap = QueueCapacity();
  do {
    if (cur >= cap) return EnqueueResult::kFull;
  } while (!queued_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
  if (stopping_.load(std::memory_order_seq_cst)) {
    queued_.fetch_sub(1, std::memory_order_seq_cst);
    NotifySpace();
    return EnqueueResult::kStopped;
  }
  WorkerShard& sh = *shards_[w];
  size_t depth;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.queue.push_back(std::move(fn));
    depth = sh.queue.size();
    if (depth > sh.queue_depth_hwm.load(std::memory_order_relaxed)) {
      sh.queue_depth_hwm.store(depth, std::memory_order_relaxed);
    }
  }
  sh.submitted.fetch_add(1, std::memory_order_relaxed);
  WakeWorker(w, depth);
  return EnqueueResult::kOk;
}

bool Scheduler::WaitForSpace() {
  std::unique_lock<std::mutex> lk(space_mu_);
  space_waiters_.fetch_add(1, std::memory_order_release);
  // Timeout backstop: a pull that races the waiter-count check can miss its
  // notify; re-polling every 200us bounds the stall without a syscall on
  // the uncontended path.
  space_cv_.wait_for(lk, std::chrono::microseconds(200), [this] {
    return stopping_.load(std::memory_order_acquire) ||
           queued_.load(std::memory_order_relaxed) < QueueCapacity();
  });
  space_waiters_.fetch_sub(1, std::memory_order_release);
  return !stopping_.load(std::memory_order_acquire);
}

void Scheduler::NotifySpace() {
  if (space_waiters_.load(std::memory_order_acquire) == 0) return;
  {
    std::lock_guard<std::mutex> lk(space_mu_);
  }
  space_cv_.notify_all();
}

void Scheduler::WakeWorker(uint32_t w, size_t depth_after_push) {
  WorkerShard& sh = *shards_[w];
  if (sh.parked.load(std::memory_order_acquire)) {
    sh.cv.notify_one();
  } else if (depth_after_push > options_.slots_per_worker) {
    // The owner is running but its queue outgrew its slot capacity: kick one
    // parked sibling so the overflow gets stolen instead of waiting for the
    // sibling's park timeout.
    WakeAnyParked(w);
  }
}

void Scheduler::WakeAnyParked(uint32_t except) {
  for (uint32_t i = 1; i < options_.workers; ++i) {
    uint32_t v = (except + i) % options_.workers;
    if (shards_[v]->parked.load(std::memory_order_acquire)) {
      shards_[v]->cv.notify_one();
      return;
    }
  }
}

void Scheduler::Submit(TaskFn fn) {
  const uint32_t w = NextShard();
  for (;;) {
    EnqueueResult r = EnqueueTo(w, fn);
    if (r != EnqueueResult::kFull) return;
    if (!WaitForSpace()) return;
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

SchedulerStats Scheduler::WorkerStats(uint32_t worker_id) const {
  SchedulerStats s;
  const WorkerShard& sh = *shards_[worker_id % options_.workers];
  s.submitted = sh.submitted.load(std::memory_order_relaxed);
  s.pulled = sh.pulled.load(std::memory_order_relaxed);
  s.stolen = sh.stolen.load(std::memory_order_relaxed);
  s.steal_fail_probes = sh.steal_fail_probes.load(std::memory_order_relaxed);
  s.parks = sh.parks.load(std::memory_order_relaxed);
  s.spurious_wakeups = sh.spurious_wakeups.load(std::memory_order_relaxed);
  s.queue_depth_hwm = sh.queue_depth_hwm.load(std::memory_order_relaxed);
  return s;
}

std::vector<SchedulerStats> Scheduler::PerWorkerStats() const {
  std::vector<SchedulerStats> out;
  out.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    out.push_back(WorkerStats(w));
  }
  return out;
}

SchedulerStats Scheduler::TotalStats() const {
  SchedulerStats total;
  for (uint32_t w = 0; w < options_.workers; ++w) {
    total.Add(WorkerStats(w));
  }
  return total;
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

bool Scheduler::ResumeSlot(Slot& slot) {
  slot.task.Resume();
  if (slot.task.done()) {
    if (slot.task.result().ok()) {
      committed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      aborted_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    slot.task = TxnTask();
    slot.state = SlotState::kEmpty;
    return true;
  }
  switch (slot.task.wait_kind()) {
    case WaitKind::kAsyncRead:
      slot.state = SlotState::kWaitIo;
      break;
    case WaitKind::kXidLock:
      slot.state = SlotState::kWaitXid;
      break;
    case WaitKind::kCommitFlush:
      slot.state = SlotState::kWaitFlush;
      break;
    case WaitKind::kLatch:
    case WaitKind::kNone:
    default:
      slot.state = SlotState::kReady;
      break;
  }
  return false;
}

size_t Scheduler::PopLocal(WorkerShard& sh, size_t max,
                           std::vector<TaskFn>* out) {
  std::lock_guard<std::mutex> lk(sh.mu);
  size_t n = std::min(max, sh.queue.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(sh.queue.front()));
    sh.queue.pop_front();
  }
  return n;
}

size_t Scheduler::StealBatch(uint32_t self, size_t max, Random* rng,
                             std::vector<TaskFn>* out) {
  WorkerShard& me = *shards_[self];
  const uint32_t n = options_.workers;
  if (n < 2) return 0;
  // Random start, linear scan: one full pass over the victims per attempt.
  uint32_t start = static_cast<uint32_t>(rng->Uniform(n));
  for (uint32_t p = 0; p < n; ++p) {
    uint32_t v = (start + p) % n;
    if (v == self) continue;
    WorkerShard& victim = *shards_[v];
    std::unique_lock<std::mutex> lk(victim.mu, std::try_to_lock);
    if (!lk.owns_lock()) {
      // Contended victim: someone else is submitting to or stealing from
      // it. Skip rather than convoy on the lock.
      me.steal_fail_probes.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    size_t avail = victim.queue.size();
    if (avail == 0) {
      me.steal_fail_probes.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Steal half the victim's queue (oldest first, preserving rough FIFO
    // order), capped at what this worker's vacant slots can absorb.
    size_t take = std::min(max, (avail + 1) / 2);
    for (size_t i = 0; i < take; ++i) {
      out->push_back(std::move(victim.queue.front()));
      victim.queue.pop_front();
    }
    me.stolen.fetch_add(take, std::memory_order_relaxed);
    return take;
  }
  return 0;
}

bool Scheduler::ParkIdle(uint32_t worker_id, uint32_t park_us) {
  WorkerShard& sh = *shards_[worker_id];
  std::unique_lock<std::mutex> lk(sh.mu);
  // Re-check under the shard lock: a submit that lost the parked-flag race
  // must be noticed here instead of slept through. queued_ > 0 means some
  // shard has work to steal, so go probe instead of sleeping.
  if (!sh.queue.empty() || stopping_.load(std::memory_order_acquire) ||
      queued_.load(std::memory_order_relaxed) > 0) {
    return true;
  }
  sh.parked.store(true, std::memory_order_release);
  sh.parks.fetch_add(1, std::memory_order_relaxed);
  bool woke_with_work =
      sh.cv.wait_for(lk, std::chrono::microseconds(park_us), [&] {
        return stopping_.load(std::memory_order_acquire) ||
               !sh.queue.empty();
      });
  sh.parked.store(false, std::memory_order_release);
  if (!woke_with_work &&
      queued_.load(std::memory_order_relaxed) == 0) {
    sh.spurious_wakeups.fetch_add(1, std::memory_order_relaxed);
  }
  return woke_with_work;
}

void Scheduler::WorkerMain(uint32_t worker_id) {
  if (options_.pin_workers) PinCurrentThread(worker_id);
  const uint32_t nslots = options_.slots_per_worker;
  std::vector<Slot> slots(nslots);
  for (uint32_t i = 0; i < nslots; ++i) {
    slots[i].env.worker_id = worker_id;
    slots[i].env.global_slot_id = worker_id * nslots + i;
    slots[i].env.ctx.partition = worker_id;
    slots[i].env.ctx.synchronous = false;
    slots[i].env.ctx.rng = Random(0x5EED0000 + slots[i].env.global_slot_id);
  }
  WorkerShard& sh = *shards_[worker_id];
  Random steal_rng(0xC0FFEE00 + worker_id);
  std::vector<TaskFn> intake;
  intake.reserve(nslots);

  uint64_t local_completed = 0;
  uint64_t last_gc_at = 0;
  uint64_t blocked_spins = 0;
  uint64_t idle_rounds = 0;
  uint32_t park_us = kMinParkUs;

  for (;;) {
    bool any_active = false;
    bool high_urgency_pending = false;
    bool progressed = false;

    // Pass 1: resume runnable tasks.
    for (auto& slot : slots) {
      switch (slot.state) {
        case SlotState::kEmpty:
          continue;
        case SlotState::kReady:
          if (ResumeSlot(slot)) ++local_completed;
          progressed = true;
          break;
        case SlotState::kWaitIo:
          if (slot.env.ctx.load.active && slot.env.ctx.load.req.done()) {
            if (ResumeSlot(slot)) ++local_completed;
            progressed = true;
          } else {
            high_urgency_pending = true;
          }
          break;
        case SlotState::kWaitXid:
        case SlotState::kWaitFlush:
          // Low urgency: poll by resuming; the task re-checks its condition
          // and yields again if still blocked (cheap: one virtual hop).
          if (ResumeSlot(slot)) {
            ++local_completed;
            progressed = true;
          }
          break;
      }
      if (slot.state != SlotState::kEmpty) any_active = true;
    }

    // Pass 2: pull new tasks when slots are vacant and no high-urgency work
    // is being starved (the pull-based policy of Section 7.1): own queue
    // first, then steal a half-batch from a probed victim.
    if (!high_urgency_pending) {
      size_t vacant = 0;
      for (auto& slot : slots) {
        if (slot.state == SlotState::kEmpty) ++vacant;
      }
      if (vacant > 0) {
        intake.clear();
        size_t got = PopLocal(sh, vacant, &intake);
        if (got > 0) {
          sh.pulled.fetch_add(got, std::memory_order_relaxed);
        } else if (queued_.load(std::memory_order_relaxed) > 0) {
          got = StealBatch(worker_id, vacant, &steal_rng, &intake);
        }
        if (got > 0) {
          queued_.fetch_sub(got, std::memory_order_seq_cst);
          NotifySpace();
          size_t next = 0;
          for (auto& slot : slots) {
            if (next >= intake.size()) break;
            if (slot.state != SlotState::kEmpty) continue;
            slot.task = intake[next++](&slot.env);
            slot.state = SlotState::kReady;
            any_active = true;
            progressed = true;
          }
          intake.clear();
        }
      }
    }

    // Housekeeping: page swap for this worker's partition; GC for owned
    // slots every N completed transactions; global sweep on worker 0.
    if (hooks_.page_swap) hooks_.page_swap(worker_id, &slots[0].env.ctx);
    if (local_completed - last_gc_at >= options_.gc_every_txns) {
      last_gc_at = local_completed;
      if (hooks_.run_gc) {
        for (uint32_t i = 0; i < nslots; ++i) {
          hooks_.run_gc(worker_id * nslots + i);
        }
      }
      if (worker_id == 0 && hooks_.sweep) hooks_.sweep();
    }

    if (!any_active) {
      // Drain check: seq_cst loads pair with EnqueueTo's reserve/re-check
      // so no task reserved before Stop() can be missed.
      if (stopping_.load(std::memory_order_seq_cst) &&
          queued_.load(std::memory_order_seq_cst) == 0) {
        return;
      }
      // Exponential spin-then-park: re-probe (yielding) a few rounds, then
      // park on the shard condvar with a doubling timeout. The empty-queue
      // fast path costs no syscalls until the spin budget is spent.
      if (++idle_rounds <= kIdleSpinRounds) {
        std::this_thread::yield();
        continue;
      }
      ParkIdle(worker_id, park_us);
      park_us = std::min(park_us * 2, kMaxParkUs);
    } else {
      idle_rounds = 0;
      park_us = kMinParkUs;
      if (!progressed) {
        // All slots blocked on low-urgency waits: back off lightly so the
        // poll loop doesn't monopolize the core.
        if (++blocked_spins > 64) {
          blocked_spins = 0;
          std::this_thread::yield();
        }
      } else {
        blocked_spins = 0;
      }
    }
  }
}

}  // namespace phoebe
