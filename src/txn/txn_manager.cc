#include "txn/txn_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cassert>
#include <thread>

#include "common/profiler.h"

namespace {

void SpinLock(std::atomic_flag& f) {
  int spins = 0;
  while (f.test_and_set(std::memory_order_acquire)) {
    if (++spins >= 1024) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

void SpinUnlock(std::atomic_flag& f) { f.clear(std::memory_order_release); }

}  // namespace

namespace phoebe {

TxnManager::TxnManager(uint32_t num_slots, GlobalClock* clock)
    : clock_(clock) {
  slots_.reserve(num_slots);
  for (uint32_t i = 0; i < num_slots; ++i) {
    slots_.push_back(std::make_unique<SlotState>());
    slots_.back()->txn.slot_id_ = i;
  }
}

Transaction* TxnManager::Begin(uint32_t slot_id, IsolationLevel iso) {
  // Fast path: one relaxed-ish load when no checkpoint is quiescing. The
  // slow path re-checks under the gate mutex, so a store that races with
  // the unlocked load is caught there (no lost wakeup).
  if (gate_closed_.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> lk(gate_mu_);
    gate_cv_.wait(
        lk, [&] { return !gate_closed_.load(std::memory_order_acquire); });
  }
  return BeginOnSlot(slot_id, iso);
}

Transaction* TxnManager::BeginMaybe(uint32_t slot_id, IsolationLevel iso) {
  if (gate_closed_.load(std::memory_order_acquire)) return nullptr;
  return BeginOnSlot(slot_id, iso);
}

void TxnManager::BeginQuiesce() {
  std::lock_guard<std::mutex> lk(gate_mu_);
  gate_closed_.store(true, std::memory_order_release);
}

void TxnManager::EndQuiesce() {
  {
    std::lock_guard<std::mutex> lk(gate_mu_);
    gate_closed_.store(false, std::memory_order_release);
  }
  gate_cv_.notify_all();
}

bool TxnManager::AllSlotsIdle() const {
  for (const auto& s : slots_) {
    if (s->active_xid.load(std::memory_order_acquire) != 0) return false;
  }
  return true;
}

Transaction* TxnManager::BeginOnSlot(uint32_t slot_id, IsolationLevel iso) {
  SlotState& s = *slots_[slot_id];
  if (s.active_xid.load(std::memory_order_relaxed) != 0) {
    // A slot runs one transaction at a time (Section 7.1); starting a
    // second would corrupt the slot's UNDO arena ordering. Fail loudly.
    fprintf(stderr,
            "FATAL: Begin() on slot %u which already has an active "
            "transaction\n",
            slot_id);
    abort();
  }

  // The previous transaction on this slot is finished, so nothing can still
  // reference its scratch memory legitimately; reclaim it for this one.
  s.scratch.Reset();

  // Begin protocol (see DESIGN.md / GC discussion): publish a conservative
  // lower bound + pending marker BEFORE allocating the real timestamp, so a
  // concurrent watermark scan can never overshoot us.
  s.active_start_ts.store(clock_->Current() + 1, std::memory_order_relaxed);
  s.active_xid.store(kPendingXid, std::memory_order_release);

  Timestamp ts = clock_->Next();
  Xid xid = MakeXid(ts);

  Transaction& txn = s.txn;
  txn.xid_ = xid;
  txn.start_ts_ = ts;
  txn.snapshot_ = ts;
  txn.isolation_ = iso;
  txn.state_ = TxnState::kActive;
  txn.undo_head_ = nullptr;
  txn.undo_count_ = 0;
  txn.last_lsn = 0;
  txn.max_gsn = 0;
  txn.remote_dependency = false;
  txn.max_observed_cts = 0;
  txn.leaf_cache.Clear();

  s.active_start_ts.store(ts, std::memory_order_relaxed);
  s.active_snapshot.store(ts, std::memory_order_relaxed);
  s.active_xid.store(xid, std::memory_order_release);
  return &txn;
}

void TxnManager::RefreshStatementSnapshot(Transaction* txn) {
  if (txn->isolation_ != IsolationLevel::kReadCommitted) return;
  // O(1) snapshot acquisition: a single clock load (Section 6.1).
  Timestamp snap = clock_->Current();
  txn->snapshot_ = snap;
  slots_[txn->slot_id_]->active_snapshot.store(snap,
                                               std::memory_order_relaxed);
}

Timestamp TxnManager::PrepareCommit(Transaction* txn) {
  ComponentScope prof(Component::kMvcc);
  SlotState& s = *slots_[txn->slot_id_];
  // Publish the pending marker before taking the timestamp: a reader whose
  // snapshot is at or above cts acquired the clock after this store, so it
  // sees the marker (or cts) rather than a commit that has not started.
  s.committing_cts.store(kCommitPending, std::memory_order_release);
  Timestamp cts = clock_->Next();
  // Publish the commit as unfinished before any ets makes it visible: the
  // ets release stores below carry this store to every reader of them.
  s.committing_cts.store(cts, std::memory_order_release);
  // Single scan over the transaction's UNDO list (Section 6.2).
  for (UndoRecord* rec = txn->undo_head_; rec != nullptr;
       rec = rec->txn_next) {
    rec->ets.store(cts, std::memory_order_release);
  }
  txn->state_ = TxnState::kCommitted;
  return cts;
}

void TxnManager::FinishTransaction(Transaction* txn, bool committed) {
  SlotState& s = *slots_[txn->slot_id_];
  Xid xid = txn->xid_;
  txn->state_ = committed ? TxnState::kCommitted : TxnState::kAborted;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.active_xid.store(0, std::memory_order_release);
    s.active_start_ts.store(0, std::memory_order_relaxed);
    s.committing_cts.store(0, std::memory_order_release);
  }
  s.cv.notify_all();
  if (on_finish_) on_finish_(xid);
}

std::optional<Timestamp> TxnManager::CommitTsOf(Xid xid) const {
  for (const auto& s : slots_) {
    if (s->active_xid.load(std::memory_order_acquire) != xid) continue;
    for (;;) {
      uint64_t cts = s->committing_cts.load(std::memory_order_acquire);
      // Re-check the owner after the load: a value stored by a later
      // transaction on this slot is only read after xid's finish.
      if (s->active_xid.load(std::memory_order_acquire) != xid) break;
      if (cts != kCommitPending) return cts;
      std::this_thread::yield();  // between the marker and the clock tick
    }
    break;
  }
  return std::nullopt;
}

bool TxnManager::IsXidActive(Xid xid) const {
  for (const auto& s : slots_) {
    if (s->active_xid.load(std::memory_order_acquire) == xid) return true;
  }
  return false;
}

void TxnManager::WaitForXid(Xid xid) {
  for (auto& s : slots_) {
    if (s->active_xid.load(std::memory_order_acquire) == xid) {
      std::unique_lock<std::mutex> lk(s->mu);
      s->cv.wait(lk, [&] {
        return s->active_xid.load(std::memory_order_acquire) != xid;
      });
      return;
    }
  }
}

void TxnManager::WaitForXidFor(Xid xid, uint64_t micros) {
  for (auto& s : slots_) {
    if (s->active_xid.load(std::memory_order_acquire) == xid) {
      std::unique_lock<std::mutex> lk(s->mu);
      s->cv.wait_for(lk, std::chrono::microseconds(micros), [&] {
        return s->active_xid.load(std::memory_order_acquire) != xid;
      });
      return;
    }
  }
}

TxnManager::SlotState* TxnManager::UnfinishedObservedCommit(
    const Transaction* txn) {
  if (txn->max_observed_cts == 0) return nullptr;
  for (auto& s : slots_) {
    uint64_t cts = s->committing_cts.load(std::memory_order_acquire);
    if (cts != 0 && cts <= txn->max_observed_cts) return s.get();
  }
  return nullptr;
}

void TxnManager::WaitCommitFinished(SlotState* s, uint64_t micros) {
  uint64_t cts = s->committing_cts.load(std::memory_order_acquire);
  if (cts == 0) return;
  std::unique_lock<std::mutex> lk(s->mu);
  s->cv.wait_for(lk, std::chrono::microseconds(micros), [&] {
    return s->committing_cts.load(std::memory_order_acquire) != cts;
  });
}

Timestamp TxnManager::MinActiveStartTs() const {
  // Capture the clock BEFORE scanning: any begin we miss has ts > this.
  Timestamp min_ts = clock_->Current() + 1;
  for (const auto& s : slots_) {
    uint64_t xid = s->active_xid.load(std::memory_order_acquire);
    if (xid == 0) continue;
    Timestamp ts = s->active_start_ts.load(std::memory_order_relaxed);
    min_ts = std::min(min_ts, ts);
  }
  return min_ts;
}

Timestamp TxnManager::MaxFrozenStartTs() const {
  Timestamp min_ts = ~0ull;
  for (const auto& s : slots_) {
    min_ts = std::min(
        min_ts, s->last_reclaimed_start_ts.load(std::memory_order_relaxed));
  }
  return min_ts == ~0ull ? 0 : min_ts;
}

size_t TxnManager::RunUndoGc(uint32_t slot_id) {
  ComponentScope prof(Component::kGc);
  SlotState& s = *slots_[slot_id];
  Timestamp min_active = MinActiveStartTs();
  uint64_t last_ets = 0;
  size_t n = s.arena.ReclaimWhile(
      [min_active](const UndoRecord& rec) {
        uint64_t ets = rec.ets.load(std::memory_order_acquire);
        if (IsXid(ets) || ets == 0) return false;  // still active
        return ets < min_active;
      },
      reclaim_hook_, &last_ets);
  if (n > 0 && last_ets != 0) {
    // The reclaimed commit ts bounds the reclaimed txn's start ts.
    s.last_reclaimed_start_ts.store(last_ets, std::memory_order_relaxed);
  }
  return n;
}

void TxnManager::RegisterTwin(RelationId relation, BufferFrame* bf) {
  // Steady-state fast path: repeat writers to an already-attached page see
  // the flag and never touch the shard. The caller holds the frame's
  // exclusive latch, which serializes this exchange against the sweeper's
  // flag-clear (also done under that latch), so a true result always means
  // the frame really is in some shard's list.
  if (bf->twin_registered.exchange(true, std::memory_order_acq_rel)) return;
  TwinShard& shard = twin_shards_[TwinShardOf(relation)];
  SpinLock(shard.lock);
  shard.frames.push_back(bf);
  SpinUnlock(shard.lock);
}

size_t TxnManager::SweepTwinTables() {
  ComponentScope prof(Component::kGc);
  size_t destroyed = 0;
  std::vector<BufferFrame*> frames;
  std::vector<BufferFrame*> keep;
  for (TwinShard& shard : twin_shards_) {
    frames.clear();
    keep.clear();
    SpinLock(shard.lock);
    frames.swap(shard.frames);
    SpinUnlock(shard.lock);
    for (BufferFrame* bf : frames) {
      TwinTable* t = TwinTable::Of(bf);
      bool freed = false;
      if ((t == nullptr || t->AllChainsDead()) &&
          bf->latch.TryLockExclusive()) {
        // Re-verify under the latch: a writer may have raced in. Clearing
        // the registration flag must also happen under the latch, before
        // the frame leaves the registry, so a concurrent RegisterTwin can
        // never see a stale flag on an unlisted frame.
        TwinTable* cur = TwinTable::Of(bf);
        if (cur == nullptr || (cur == t && t->AllChainsDead())) {
          if (cur != nullptr) TwinTable::Destroy(bf);
          bf->twin_registered.store(false, std::memory_order_release);
          freed = true;
          ++destroyed;
        }
        bf->latch.UnlockExclusive();
      }
      if (!freed) keep.push_back(bf);
    }
    if (!keep.empty()) {
      SpinLock(shard.lock);
      for (BufferFrame* bf : keep) shard.frames.push_back(bf);
      SpinUnlock(shard.lock);
    }
  }
  return destroyed;
}

size_t TxnManager::TotalLiveUndo() const {
  size_t n = 0;
  for (const auto& s : slots_) n += s->arena.live_count();
  return n;
}

}  // namespace phoebe
