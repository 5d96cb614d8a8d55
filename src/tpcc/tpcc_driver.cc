#include "tpcc/tpcc_driver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/profiler.h"
#include "io/io_stats.h"

namespace phoebe {
namespace tpcc {

namespace {

enum class TxnType { kNewOrder, kPayment, kOrderStatus, kDelivery, kStock };

TxnType PickType(TpccRandom* rnd, const DriverConfig& cfg) {
  int64_t roll = rnd->Uniform(1, 100);
  if (roll <= cfg.pct_new_order) return TxnType::kNewOrder;
  roll -= cfg.pct_new_order;
  if (roll <= cfg.pct_payment) return TxnType::kPayment;
  roll -= cfg.pct_payment;
  if (roll <= cfg.pct_order_status) return TxnType::kOrderStatus;
  roll -= cfg.pct_order_status;
  if (roll <= cfg.pct_delivery) return TxnType::kDelivery;
  return TxnType::kStock;
}

/// Parameter block for one transaction, generated once so every retry
/// attempt re-executes the procedure with identical inputs.
struct TxnParams {
  TxnType type = TxnType::kNewOrder;
  NewOrderParams no;
  PaymentParams pay;
  OrderStatusParams os;
  DeliveryParams del;
  StockLevelParams sl;
};

TxnParams MakeParams(TpccRandom* rnd, Workload* w, TxnType type,
                     int32_t w_id) {
  TxnParams p;
  p.type = type;
  switch (type) {
    case TxnType::kNewOrder:
      p.no = MakeNewOrderParams(rnd, w->scale, w_id);
      break;
    case TxnType::kPayment:
      p.pay = MakePaymentParams(rnd, w->scale, w_id);
      break;
    case TxnType::kOrderStatus:
      p.os = MakeOrderStatusParams(rnd, w->scale, w_id);
      break;
    case TxnType::kDelivery:
      p.del = MakeDeliveryParams(rnd, w_id);
      break;
    case TxnType::kStock:
      p.sl = MakeStockLevelParams(rnd, w_id);
      break;
  }
  return p;
}

TxnTask StartAttempt(Workload* w, TaskEnv* env, const TxnParams& p) {
  switch (p.type) {
    case TxnType::kNewOrder:
      return NewOrderTxn(w, env, p.no);
    case TxnType::kPayment:
      return PaymentTxn(w, env, p.pay);
    case TxnType::kOrderStatus:
      return OrderStatusTxn(w, env, p.os);
    case TxnType::kDelivery:
      return DeliveryTxn(w, env, p.del);
    case TxnType::kStock:
      return StockLevelTxn(w, env, p.sl);
  }
  return NewOrderTxn(w, env, p.no);
}

/// One closed-loop TPC-C terminal (a HammerDB virtual user): it runs one
/// transaction at a time and starts the next when the previous one ends.
/// `scheduler` is set in the coroutine model, where each transaction's last
/// action is to submit its successor; the thread model loops on its own.
struct Terminal {
  TpccRandom rnd;
  const DriverConfig* cfg = nullptr;
  Workload* w = nullptr;
  Scheduler* scheduler = nullptr;
};

/// One terminal transaction: runs the procedure, and on a *system* abort
/// (deadlock timeout / write-write conflict — never the intentional 1%
/// NewOrder rollback, never fail-stop kUnavailable or I/O errors) re-executes
/// it with the same inputs after a jittered exponential backoff paid in
/// scheduler yields, up to max_retries attempts. The home warehouse is the
/// slot's (worker-warehouse binding) when affinity is on, otherwise uniform.
TxnTask RunTerminalTxn(Terminal* t, TaskEnv* env) {
  Workload* w = t->w;
  const DriverConfig& cfg = *t->cfg;
  TxnType type = PickType(&t->rnd, cfg);
  int32_t w_id =
      cfg.affinity
          ? static_cast<int32_t>(env->global_slot_id %
                                 static_cast<uint32_t>(w->scale.warehouses)) +
                1
          : static_cast<int32_t>(t->rnd.Uniform(1, w->scale.warehouses));
  TxnParams params = MakeParams(&t->rnd, w, type, w_id);

  Status st;
  uint64_t backoff = 16;  // yields; doubles per retry with +-backoff jitter
  for (uint32_t attempt = 0;; ++attempt) {
    TxnTask inner = StartAttempt(w, env, params);
    inner.Resume();
    while (!inner.done()) {
      co_await YieldWait(inner.wait_kind(), inner.wait_xid());
      inner.Resume();
    }
    st = inner.result();
    bool user_abort = env->global_slot_id >= w->last_abort_user.size() ||
                      w->last_abort_user[env->global_slot_id] != 0;
    if (st.ok() || !st.IsAborted() || user_abort ||
        attempt >= cfg.max_retries) {
      break;
    }
    w->retries.fetch_add(1, std::memory_order_relaxed);
    uint64_t spins = backoff + env->ctx.rng.Next() % backoff;
    for (uint64_t i = 0; i < spins; ++i) {
      // kLatch yields re-queue the slot immediately (no parked wait), so the
      // backoff costs scheduler passes, not wall-clock sleeps.
      co_await YieldWait(WaitKind::kLatch, 0);
    }
    backoff = std::min<uint64_t>(backoff * 2, 1024);
  }
  // The successor may start on another worker as soon as it is queued, so
  // nothing below touches the terminal. Every terminal has at most one task
  // queued, and there are total_slots() terminals against a queue capacity
  // of 2x total_slots(): this Submit never waits for space. Once Stop() has
  // begun it enqueues nothing, which ends the loop.
  if (t->scheduler != nullptr) {
    t->scheduler->Submit(
        [t](TaskEnv* e) { return RunTerminalTxn(t, e); });
  }
  co_return st;
}

/// Thread execution model (Exp 6 / Exp 8 baseline): one OS thread per task
/// slot runs its terminal's transactions to completion with blocking waits.
/// It also runs the housekeeping the scheduler would: UNDO GC for its own
/// slot every gc_every_txns transactions, and the global sweep on thread 0.
void RunThreadTerminal(Terminal* t, uint32_t id, bool pin,
                       const Scheduler::Hooks& hooks,
                       const std::atomic<bool>& stop) {
  if (pin) PinCurrentThread(id);
  TaskEnv env;
  env.worker_id = id;
  env.global_slot_id = id;  // one slot per thread in the thread model
  env.ctx.partition = id;
  env.ctx.synchronous = true;
  env.ctx.rng = Random(0x7EED0000 + id);
  const uint32_t gc_every = Scheduler::Options().gc_every_txns;
  for (uint64_t done = 1; !stop.load(std::memory_order_acquire); ++done) {
    (void)RunTerminalTxn(t, &env).RunToCompletion();
    if (done % gc_every == 0) {
      hooks.run_gc(id);
      if (id == 0) hooks.sweep();
    }
  }
}

struct Snapshot {
  uint64_t commits = 0;
  uint64_t new_orders = 0;
  uint64_t wal_bytes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t heap_allocs = 0;
  uint64_t heap_bytes = 0;
  uint64_t arena_bytes = 0;
  double at = 0;
};

Snapshot TakeSnapshot(Workload* w) {
  Snapshot s;
  s.commits = w->total_commits();
  s.new_orders = w->new_order_commits.load(std::memory_order_relaxed);
  auto& io = IoStats::Global();
  s.wal_bytes = io.wal_bytes_written.load(std::memory_order_relaxed);
  s.read_bytes = io.data_bytes_read.load(std::memory_order_relaxed);
  s.write_bytes = io.data_bytes_written.load(std::memory_order_relaxed);
  Profiler::Totals t = Profiler::Aggregate();
  s.heap_allocs = t.total_heap_allocs;
  s.heap_bytes = t.total_heap_bytes;
  s.arena_bytes = t.arena_bytes;
  s.at = NowSeconds();
  return s;
}

/// Waits out the warmup, then measures the configured window while the
/// terminals run: sampled once per 250 ms into a per-second series, with
/// allocation tracking on for the window only.
void MeasureWindow(Workload* w, const DriverConfig& config,
                   DriverResult* result) {
  if (config.warmup_seconds > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.warmup_seconds));
  }
  // Warmup has already paid the one-time pool growth (vector capacities,
  // arena blocks), so the window reflects steady state.
  Profiler::EnableAllocTracking(true);
  Snapshot start = TakeSnapshot(w);
  Snapshot last = start;
  const double deadline = start.at + config.seconds;
  for (double now = start.at; now < deadline; now = NowSeconds()) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(0.25, deadline - now)));
    Snapshot cur = TakeSnapshot(w);
    double dt = cur.at - last.at;
    if (dt < 0.9) continue;
    SeriesPoint pt;
    pt.t = cur.at - start.at;
    pt.tpmc = static_cast<double>(cur.new_orders - last.new_orders) / dt * 60.0;
    pt.tpm = static_cast<double>(cur.commits - last.commits) / dt * 60.0;
    pt.wal_mb_per_s =
        static_cast<double>(cur.wal_bytes - last.wal_bytes) / dt / 1e6;
    pt.data_read_mb_per_s =
        static_cast<double>(cur.read_bytes - last.read_bytes) / dt / 1e6;
    pt.data_write_mb_per_s =
        static_cast<double>(cur.write_bytes - last.write_bytes) / dt / 1e6;
    result->series.push_back(pt);
    last = cur;
  }
  Snapshot end = TakeSnapshot(w);
  Profiler::EnableAllocTracking(false);

  result->seconds = end.at - start.at;
  result->commits = end.commits - start.commits;
  result->new_order_commits = end.new_orders - start.new_orders;
  result->tpm = static_cast<double>(result->commits) / result->seconds * 60.0;
  result->tpmc = static_cast<double>(result->new_order_commits) /
                 result->seconds * 60.0;
  result->wal_mb_per_s = static_cast<double>(end.wal_bytes - start.wal_bytes) /
                         result->seconds / 1e6;
  if (result->commits > 0) {
    result->heap_allocs = end.heap_allocs - start.heap_allocs;
    result->heap_bytes = end.heap_bytes - start.heap_bytes;
    result->arena_bytes = end.arena_bytes - start.arena_bytes;
    double n = static_cast<double>(result->commits);
    result->heap_allocs_per_txn = static_cast<double>(result->heap_allocs) / n;
    result->heap_bytes_per_txn = static_cast<double>(result->heap_bytes) / n;
    result->arena_bytes_per_txn = static_cast<double>(result->arena_bytes) / n;
  }
}

}  // namespace

std::string DriverResult::Summary() const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "tpmC=%.0f tpm=%.0f commits=%llu neworder=%llu aborts(user=%llu "
           "sys=%llu retries=%llu) wal=%.1fMB/s over %.1fs",
           tpmc, tpm, static_cast<unsigned long long>(commits),
           static_cast<unsigned long long>(new_order_commits),
           static_cast<unsigned long long>(user_aborts),
           static_cast<unsigned long long>(sys_aborts),
           static_cast<unsigned long long>(retries), wal_mb_per_s,
           seconds);
  std::string out = buf;
  // Allocation profile of the measured window (tentpole metric of the
  // allocation-free hot path; see EXPERIMENTS.md Exp 7).
  if (heap_allocs > 0 || arena_bytes > 0) {
    snprintf(buf, sizeof(buf),
             "\n#ALLOC allocs_per_txn=%.1f heap_bytes_per_txn=%.0f "
             "arena_bytes_per_txn=%.0f heap_allocs=%llu txns=%llu",
             heap_allocs_per_txn, heap_bytes_per_txn, arena_bytes_per_txn,
             static_cast<unsigned long long>(heap_allocs),
             static_cast<unsigned long long>(commits));
    out += buf;
  }
  if (!recovery_line.empty()) {
    out += "\n";
    out += recovery_line;
  }
  // Per-worker scheduler dispatch counters (coroutine model): shows how
  // much of the load each shard pulled locally vs. stole, and how often
  // workers parked.
  if (!sched_per_worker.empty()) {
    out += "\nsched: " + sched.ToString();
    for (size_t w = 0; w < sched_per_worker.size(); ++w) {
      const SchedulerStats& s = sched_per_worker[w];
      snprintf(buf, sizeof(buf),
               "\n  w%zu: pulled=%llu stolen=%llu steal_fails=%llu "
               "parks=%llu qhwm=%llu",
               w, static_cast<unsigned long long>(s.pulled),
               static_cast<unsigned long long>(s.stolen),
               static_cast<unsigned long long>(s.steal_fail_probes),
               static_cast<unsigned long long>(s.parks),
               static_cast<unsigned long long>(s.queue_depth_hwm));
      out += buf;
    }
  }
  // Surface graceful-degradation events (I/O retries, CRC re-reads,
  // quarantines, WAL sync failures); empty on a healthy run.
  std::string degradation = IoStats::Global().DegradationString();
  if (!degradation.empty()) {
    out += "\n";
    out += degradation;
  }
  return out;
}

DriverResult RunTpcc(Workload* w, const DriverConfig& config) {
  Database* db = w->db;
  DriverResult result;
  // One classification byte per task slot; must be sized before any task
  // runs (the vector is indexed lock-free by global_slot_id).
  w->last_abort_user.assign(db->options().total_slots(), 0);

  // One terminal per task slot, in both execution models.
  const uint32_t slots = db->options().workers * db->options().slots_per_worker;
  std::vector<Terminal> terminals;
  terminals.reserve(slots);
  for (uint32_t i = 0; i < slots; ++i) {
    terminals.push_back(Terminal{
        TpccRandom(config.seed ^ (0x9E3779B97F4A7C15ull * (i + 1))), &config,
        w});
  }

  if (config.thread_model) {
    Scheduler::Hooks hooks = db->MakeSchedulerHooks();
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    threads.reserve(slots);
    for (uint32_t i = 0; i < slots; ++i) {
      threads.emplace_back([&, i] {
        RunThreadTerminal(&terminals[i], i, config.pin_workers, hooks, stop);
      });
    }
    MeasureWindow(w, config, &result);
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
  } else {
    Scheduler::Options opts;
    opts.workers = db->options().workers;
    opts.slots_per_worker = db->options().slots_per_worker;
    opts.pin_workers = config.pin_workers;
    Scheduler scheduler(opts, db->MakeSchedulerHooks());
    scheduler.Start();
    for (Terminal& t : terminals) {
      t.scheduler = &scheduler;
      Terminal* tp = &t;
      scheduler.Submit([tp](TaskEnv* env) { return RunTerminalTxn(tp, env); });
    }
    MeasureWindow(w, config, &result);
    scheduler.Stop();
    result.sched_per_worker = scheduler.PerWorkerStats();
    result.sched = scheduler.TotalStats();
  }

  result.user_aborts = w->user_aborts.load(std::memory_order_relaxed);
  result.sys_aborts = w->sys_aborts.load(std::memory_order_relaxed);
  result.retries = w->retries.load(std::memory_order_relaxed);
  result.recovery_line = db->recovery_info().ToLine();
  uint64_t total = w->total_commits();
  if (total > 0) {
    result.avg_commit_wait_us =
        static_cast<double>(
            w->commit_wait_ns.load(std::memory_order_relaxed)) /
        1e3 / static_cast<double>(total);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Consistency checks (clause 3.3.2)
// ---------------------------------------------------------------------------

Status CheckConsistency(Workload* w) {
  Database* db = w->db;
  Tables& t = w->tables;
  OpContext ctx;
  ctx.synchronous = true;
  ctx.count_accesses = false;
  Transaction* txn = db->Begin(db->aux_slot(0));

  struct DistrictState {
    double ytd = 0;
    int32_t next_o_id = 0;
    int32_t max_o_id = 0;
    int32_t max_no_o_id = 0;
    int64_t no_count = 0;
    int32_t min_no_o_id = INT32_MAX;
  };
  std::map<std::pair<int32_t, int32_t>, DistrictState> districts;
  std::map<int32_t, double> warehouse_ytd;
  std::map<int32_t, double> district_ytd_sum;

  Status st = t.warehouse->ScanAllVisible(
      &ctx, txn, [&](RowId, Slice row) {
        RowView v(&t.warehouse->schema(), row.data());
        warehouse_ytd[v.GetInt32(Warehouse::kId)] =
            v.GetDouble(Warehouse::kYtd);
        return true;
      });
  if (!st.ok()) goto done;

  st = t.district->ScanAllVisible(&ctx, txn, [&](RowId, Slice row) {
    RowView v(&t.district->schema(), row.data());
    auto key = std::make_pair(v.GetInt32(District::kWId),
                              v.GetInt32(District::kId));
    districts[key].ytd = v.GetDouble(District::kYtd);
    districts[key].next_o_id = v.GetInt32(District::kNextOId);
    district_ytd_sum[key.first] += v.GetDouble(District::kYtd);
    return true;
  });
  if (!st.ok()) goto done;

  st = t.order->ScanAllVisible(&ctx, txn, [&](RowId, Slice row) {
    RowView v(&t.order->schema(), row.data());
    auto key =
        std::make_pair(v.GetInt32(Order::kWId), v.GetInt32(Order::kDId));
    districts[key].max_o_id =
        std::max(districts[key].max_o_id, v.GetInt32(Order::kId));
    return true;
  });
  if (!st.ok()) goto done;

  st = t.new_order->ScanAllVisible(
      &ctx, txn, [&](RowId, Slice row) {
        RowView v(&t.new_order->schema(), row.data());
        auto key = std::make_pair(v.GetInt32(NewOrder::kWId),
                                  v.GetInt32(NewOrder::kDId));
        auto& d = districts[key];
        d.max_no_o_id = std::max(d.max_no_o_id, v.GetInt32(NewOrder::kOId));
        d.min_no_o_id = std::min(d.min_no_o_id, v.GetInt32(NewOrder::kOId));
        d.no_count += 1;
        return true;
      });
  if (!st.ok()) goto done;

  // Consistency 1: W_YTD == sum(D_YTD).
  for (const auto& [w_id, ytd] : warehouse_ytd) {
    double sum = district_ytd_sum[w_id];
    if (std::fabs(ytd - sum) > 0.01) {
      st = Status::Corruption("consistency 1: w_ytd mismatch for warehouse " +
                              std::to_string(w_id));
      goto done;
    }
  }
  // Consistency 2 & 3: D_NEXT_O_ID - 1 == max(O_ID) == max(NO_O_ID) and the
  // NEW-ORDER ids are contiguous.
  for (const auto& [key, d] : districts) {
    if (d.next_o_id - 1 != d.max_o_id) {
      st = Status::Corruption("consistency 2: next_o_id vs max(o_id)");
      goto done;
    }
    if (d.no_count > 0) {
      if (d.max_no_o_id != d.next_o_id - 1) {
        st = Status::Corruption("consistency 2: max(no_o_id)");
        goto done;
      }
      if (d.max_no_o_id - d.min_no_o_id + 1 != d.no_count) {
        st = Status::Corruption("consistency 3: new_order gap");
        goto done;
      }
    }
  }

done:
  (void)db->Abort(&ctx, txn);  // read-only; abort releases the slot
  return st;
}

}  // namespace tpcc
}  // namespace phoebe
