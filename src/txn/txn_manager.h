#ifndef PHOEBE_TXN_TXN_MANAGER_H_
#define PHOEBE_TXN_TXN_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "buffer/buffer_frame.h"
#include "common/arena.h"
#include "common/constants.h"
#include "common/status.h"
#include "txn/clock.h"
#include "txn/transaction.h"
#include "txn/twin_table.h"
#include "txn/undo.h"

namespace phoebe {

/// Sentinel published while a transaction is allocating its start timestamp
/// (lets the GC watermark scan account for in-flight begins).
inline constexpr uint64_t kPendingXid = kXidTagBit;

/// Sentinel a committing slot publishes while it allocates its commit
/// timestamp, so a reader that began after that allocation never mistakes
/// the commit for one that has not started (see CommitTsOf).
inline constexpr uint64_t kCommitPending = ~0ull;

/// Transaction manager: slot registry, the transaction-ID lock protocol
/// (Section 7.2), watermark computation and UNDO/twin-table GC (Section 7.3).
///
/// Each task slot runs at most one transaction at a time; the slot id doubles
/// as the WAL-writer id and the UNDO-arena id, which is what makes commit
/// timestamps per slot strictly ordered and reclamation queue-like.
class TxnManager {
 public:
  struct SlotState {
    /// 0 = free, kPendingXid = starting, else the active transaction's XID.
    std::atomic<uint64_t> active_xid{0};
    /// Lower bound of (then exactly) the active transaction's start ts.
    std::atomic<uint64_t> active_start_ts{0};
    /// Snapshot currently in use (refreshed per statement under RC).
    std::atomic<uint64_t> active_snapshot{0};
    /// Commit timestamp of the slot's transaction while its commit is
    /// prepared (visible to readers) but not finished (possibly not yet
    /// durable); kCommitPending while that timestamp is being allocated;
    /// 0 otherwise.
    std::atomic<uint64_t> committing_cts{0};
    /// start_ts of the newest transaction whose UNDO was fully reclaimed.
    std::atomic<uint64_t> last_reclaimed_start_ts{0};

    Transaction txn;
    UndoArena arena;

    /// Per-transaction scratch arena for the allocation-free hot path
    /// (encoded rows, keys, visibility-chain assembly). Reset at Begin —
    /// NOT at commit, so slices handed to the procedure survive Commit()
    /// (DESIGN.md §4g).
    Arena scratch;

    /// Wakeup channel for the transaction-ID lock: waiters block here until
    /// this slot's transaction finishes (sync mode).
    std::mutex mu;
    std::condition_variable cv;
  };

  TxnManager(uint32_t num_slots, GlobalClock* clock);

  uint32_t num_slots() const {
    return static_cast<uint32_t>(slots_.size());
  }
  SlotState& slot(uint32_t i) { return *slots_[i]; }
  GlobalClock* clock() { return clock_; }

  /// --- Transaction lifecycle -----------------------------------------------

  /// Begins a transaction on `slot_id` (which must be idle). Acquires the
  /// exclusive lock on its own transaction ID implicitly (the slot's
  /// active_xid IS the lock). Blocks while the checkpoint admission gate is
  /// closed (BeginQuiesce): quiescence stalls new transactions, never aborts
  /// running ones.
  Transaction* Begin(uint32_t slot_id, IsolationLevel iso);

  /// Non-blocking Begin for maintenance paths (scheduler hooks) that must
  /// not wait on the admission gate: returns nullptr when the gate is
  /// closed. A hook blocked in Begin would deadlock against a checkpointer
  /// draining in-flight hooks.
  Transaction* BeginMaybe(uint32_t slot_id, IsolationLevel iso);

  /// --- Checkpoint admission barrier -----------------------------------------

  /// Closes the admission gate: subsequent Begins block until EndQuiesce.
  /// Already-active transactions are unaffected. Not reentrant; one
  /// quiescer at a time (the caller serializes).
  void BeginQuiesce();

  /// Reopens the admission gate and wakes all blocked Begins.
  void EndQuiesce();

  /// True when every slot is idle (no active or starting transaction).
  bool AllSlotsIdle() const;

  /// Refreshes a read-committed transaction's per-statement snapshot.
  void RefreshStatementSnapshot(Transaction* txn);

  /// Overrides a transaction's snapshot (baseline PostgreSQL-style snapshot
  /// scans compute the timestamp externally).
  void SetSnapshot(Transaction* txn, Timestamp snap) {
    txn->snapshot_ = snap;
    slots_[txn->slot_id_]->active_snapshot.store(snap,
                                                 std::memory_order_relaxed);
  }

  /// Allocates the commit timestamp and updates every UNDO record's ets in
  /// one scan of the transaction list (Section 6.2). Does NOT publish the
  /// finish; call FinishTransaction after the WAL commit wait. Until then
  /// the slot publishes the timestamp as an unfinished commit.
  Timestamp PrepareCommit(Transaction* txn);

  /// Marks the transaction finished: clears the slot's XID (releasing the
  /// transaction-ID lock) and wakes all shared-lock waiters.
  void FinishTransaction(Transaction* txn, bool committed);

  /// --- Observed-commit check (read-only commits) ----------------------------

  /// A slot whose unfinished commit has a cts at or below
  /// `txn->max_observed_cts`, or nullptr when every commit `txn` read from
  /// has finished. A commit finishes only once it is durable, so a
  /// read-only transaction may finish when this returns nullptr.
  SlotState* UnfinishedObservedCommit(const Transaction* txn);

  /// Sync mode: blocks on `s`'s finish wakeup until the commit it publishes
  /// finishes or `micros` elapse (bounded, since a commit that fail-stop
  /// rejected never finishes).
  void WaitCommitFinished(SlotState* s, uint64_t micros);

  /// Commit progress of `xid`, for a reader that found it as the ets of a
  /// chain head: the commit timestamp once `xid` has taken one (its ets
  /// stamps may still be under way), 0 while it is active and has not begun
  /// to commit, nullopt once it has finished. A transaction whose commit
  /// timestamp precedes the reader's snapshot is never reported as 0: the
  /// clock orders its kCommitPending store before the reader's snapshot.
  std::optional<Timestamp> CommitTsOf(Xid xid) const;

  /// --- Transaction-ID locks -------------------------------------------------

  /// True while `xid` belongs to an active (unfinished) transaction.
  bool IsXidActive(Xid xid) const;

  /// Blocks the calling OS thread until `xid` finishes (synchronous mode;
  /// coroutine mode yields with WaitKind::kXidLock instead and the scheduler
  /// uses the on_finish hook below).
  void WaitForXid(Xid xid);

  /// Bounded wait: returns once `xid` finished or `micros` elapsed.
  void WaitForXidFor(Xid xid, uint64_t micros);

  /// Invoked (after the slot is cleared) with every finished XID; the
  /// runtime's scheduler hooks this to wake parked coroutines.
  void set_on_finish(std::function<void(Xid)> fn) {
    on_finish_ = std::move(fn);
  }

  /// --- Watermarks & GC (Section 7.3) ----------------------------------------

  /// Minimum start timestamp over active transactions; when none are active,
  /// a clock value captured before the scan (safe per the begin protocol).
  Timestamp MinActiveStartTs() const;

  /// Max-frozen watermark: minimum over slots of the last reclaimed
  /// transaction start ts (0 until every slot reclaimed something).
  Timestamp MaxFrozenStartTs() const;

  /// Hook invoked for every reclaimed UNDO record (deleted-tuple purge and
  /// stale-index cleanup run here, implemented by the core Table layer).
  using ReclaimHook = std::function<void(const UndoRecord&)>;
  void set_reclaim_hook(ReclaimHook hook) { reclaim_hook_ = std::move(hook); }

  /// Runs UNDO GC for one slot (called by the slot's owning worker). Returns
  /// the number of records reclaimed.
  size_t RunUndoGc(uint32_t slot_id);

  /// Registers a page frame that received a twin table, in the registry
  /// shard picked by `relation`'s hash. Steady-state fast path: a frame
  /// already in the registry (twin_registered flag) returns without touching
  /// the shard lock. Caller holds the frame's exclusive latch (which is what
  /// serializes the flag against the sweeper).
  void RegisterTwin(RelationId relation, BufferFrame* bf);

  /// Sweeps registered twin tables shard by shard, destroying the
  /// reclaimable ones (all chains dead). Returns the number destroyed.
  size_t SweepTwinTables();

  /// Total live UNDO records across slots (memory pressure signal).
  size_t TotalLiveUndo() const;

 private:
  /// Publishes the begin-protocol timestamps for `slot_id` and returns the
  /// slot's Transaction. Caller has already passed the admission gate.
  Transaction* BeginOnSlot(uint32_t slot_id, IsolationLevel iso);

  GlobalClock* clock_;
  std::vector<std::unique_ptr<SlotState>> slots_;

  /// Checkpoint admission gate. The flag is atomic so Begin's fast path is
  /// one load; transitions happen under gate_mu_ so CV waiters never miss a
  /// wakeup.
  mutable std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::atomic<bool> gate_closed_{false};
  std::function<void(Xid)> on_finish_;
  ReclaimHook reclaim_hook_;

  /// Twin-table registry, sharded by RelationId hash so concurrent writers
  /// attaching twins to different tables never contend on one mutex. The
  /// per-shard spinlock guards a push_back/swap critical section of a few
  /// instructions; padding keeps shards on distinct cache lines.
  static constexpr size_t kTwinShards = 16;
  struct alignas(64) TwinShard {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<BufferFrame*> frames;
  };
  static size_t TwinShardOf(RelationId relation) {
    return (static_cast<uint64_t>(relation) * 0x9E3779B97F4A7C15ull >> 60) &
           (kTwinShards - 1);
  }
  std::array<TwinShard, kTwinShards> twin_shards_;
};

}  // namespace phoebe

#endif  // PHOEBE_TXN_TXN_MANAGER_H_
