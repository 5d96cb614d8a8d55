#include "wal/wal_manager.h"

#include <algorithm>

#include "common/latch.h"
#include "common/profiler.h"
#include "io/io_stats.h"

namespace phoebe {

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

WalWriter::WalWriter(uint32_t id, std::unique_ptr<File> file,
                     const std::atomic<bool>* sync_on_flush,
                     size_t buffer_bytes)
    : id_(id), file_(std::move(file)), sync_on_flush_(sync_on_flush) {
  size_t cap = std::max<size_t>(buffer_bytes, 4 << 10);
  for (auto& b : bufs_) {
    b.data.reset(new char[cap]);
    b.capacity = cap;
  }
  active_ = &bufs_[0];
}

uint64_t WalWriter::ReserveMetadata(LogBuffer* b, WalRecordType type,
                                    uint64_t gsn, size_t len) {
  uint64_t lsn = next_lsn_++;
  b->reserved += len;
  b->last_lsn = lsn;
  ++b->records;
  if (b->min_gsn == 0 || gsn < b->min_gsn) b->min_gsn = gsn;
  b->max_gsn = std::max(b->max_gsn, gsn);
  uint64_t fp = first_pending_gsn_.load(std::memory_order_relaxed);
  if (fp == 0 || gsn < fp) {
    first_pending_gsn_.store(gsn, std::memory_order_release);
  }
  appended_gsn_.store(
      std::max(appended_gsn_.load(std::memory_order_relaxed), gsn),
      std::memory_order_release);
  appended_lsn_.store(lsn, std::memory_order_release);
  if (type == WalRecordType::kCommit) {
    b->has_commit = true;
    commit_pending_.store(true, std::memory_order_release);
  }
  return lsn;
}

uint64_t WalWriter::Append(WalRecordType type, Xid xid, uint64_t gsn,
                           Slice payload) {
  const size_t len = WalRecordCodec::EncodedSize(payload.size());
  if (mgr_ != nullptr) {
    mgr_->pstats_.appends.fetch_add(1, std::memory_order_relaxed);
  }
  if (len > bufs_[0].capacity) {
    return AppendOversize(type, xid, gsn, payload, len);
  }
  LogBuffer* b = nullptr;
  char* dst = nullptr;
  uint64_t lsn = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (active_->reserved + len <= active_->capacity) {
        b = active_;
        dst = b->data.get() + b->reserved;
        lsn = ReserveMetadata(b, type, gsn, len);
        break;
      }
    }
    // Active buffer full: seal and drain it ourselves. If a flusher is
    // mid-drain of the shadow we block behind it on flush_mu_, after which
    // the swap frees the whole active buffer.
    if (mgr_ != nullptr) {
      mgr_->pstats_.inline_flushes.fetch_add(1, std::memory_order_relaxed);
    }
    (void)Flush();
    if (mgr_ != nullptr && mgr_->fail_stopped()) {
      // Fail-stop: the log device no longer accepts bytes; spinning on the
      // full buffer would hang the worker. Hand out an LSN that can never
      // become durable — the commit is rejected with kUnavailable and
      // recovery discards the transaction.
      std::lock_guard<std::mutex> lk(mu_);
      return next_lsn_++;
    }
  }
  // Encode outside the critical section; publish completion so the flusher
  // can seal past this reservation.
  WalRecordCodec::EncodeTo(type, lsn, gsn, xid, payload, dst);
  b->filled.fetch_add(len, std::memory_order_release);
  if (type == WalRecordType::kCommit && mgr_ != nullptr) {
    mgr_->KickFlusher();
  }
  return lsn;
}

uint64_t WalWriter::AppendOversize(WalRecordType type, Xid xid, uint64_t gsn,
                                   Slice payload, size_t len) {
  if (mgr_ != nullptr) {
    mgr_->pstats_.oversize_appends.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> flush_lk(flush_mu_);
  std::unique_lock<std::mutex> lk(mu_);
  // Drain the active buffer in place so file bytes stay in LSN order (the
  // shadow is already empty: flush_mu_ holders always drain before release).
  AwaitEncoded(active_);
  size_t wrote = 0;
  uint64_t flushed_records = 0;
  Status st = Status::OK();
  if (!active_->empty()) {
    st = file_->Append(Slice(active_->data.get(), active_->reserved));
    if (st.ok()) {
      wrote += active_->reserved;
      flushed_records += active_->records;
      flushed_lsn_.store(active_->last_lsn, std::memory_order_release);
      flushed_gsn_.store(
          std::max(flushed_gsn_.load(std::memory_order_relaxed),
                   active_->max_gsn),
          std::memory_order_release);
      active_->Reset();
    }
  }
  uint64_t lsn = ReserveMetadata(active_, type, gsn, len);
  active_->Reset();  // the record bypasses the buffer entirely
  if (st.ok()) {
    std::string tmp;
    tmp.reserve(len);
    WalRecordCodec::Encode(type, lsn, gsn, xid, payload, &tmp);
    st = file_->Append(tmp);
    if (st.ok() && sync_on_flush_->load(std::memory_order_relaxed)) {
      st = file_->Sync();
      if (!st.ok()) {
        IoStats::Global().wal_sync_failures.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    if (st.ok()) {
      wrote += tmp.size();
      ++flushed_records;
      flushed_lsn_.store(lsn, std::memory_order_release);
      flushed_gsn_.store(
          std::max(flushed_gsn_.load(std::memory_order_relaxed), gsn),
          std::memory_order_release);
      first_pending_gsn_.store(0, std::memory_order_release);
      commit_pending_.store(false, std::memory_order_release);
    }
  }
  if (wrote > 0) {
    auto& stats = IoStats::Global();
    stats.wal_bytes_written.fetch_add(wrote, std::memory_order_relaxed);
    stats.wal_flushes.fetch_add(1, std::memory_order_relaxed);
    if (mgr_ != nullptr) {
      mgr_->AddBytesFlushed(wrote);
      mgr_->pstats_.records_flushed.fetch_add(flushed_records,
                                              std::memory_order_relaxed);
    }
  }
  lk.unlock();
  if (!st.ok() && mgr_ != nullptr) mgr_->EnterFailStop(st);
  WakeDurableWaiters();
  if (mgr_ != nullptr) mgr_->WakeRemoteWaiters();
  return lsn;
}

void WalWriter::AwaitEncoded(const LogBuffer* b) {
  // Reservations of a sealed buffer are already published (the sealer held
  // mu_ after the last reservation); wait for their encoders to finish.
  while (b->filled.load(std::memory_order_acquire) != b->reserved) {
    CpuRelax();
  }
}

Result<size_t> WalWriter::Flush() {
  std::lock_guard<std::mutex> flush_lk(flush_mu_);
  return FlushLocked();
}

Result<size_t> WalWriter::FlushLocked() {
  if (mgr_ != nullptr && mgr_->fail_stopped()) {
    return Result<size_t>(mgr_->fail_stop_status());
  }
  LogBuffer* sealed = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (active_->empty()) return Result<size_t>(static_cast<size_t>(0));
    sealed = active_;
    // The shadow is drained (every flush_mu_ holder drains before
    // releasing), so appends proceed into it while we write `sealed`.
    active_ = (active_ == &bufs_[0]) ? &bufs_[1] : &bufs_[0];
  }
  AwaitEncoded(sealed);
  Status st = file_->Append(Slice(sealed->data.get(), sealed->reserved));
  if (!st.ok()) {
    if (mgr_ != nullptr) mgr_->EnterFailStop(st);
    return Result<size_t>(st);
  }
  if (sync_on_flush_->load(std::memory_order_relaxed)) {
    st = file_->Sync();
    if (!st.ok()) {
      IoStats::Global().wal_sync_failures.fetch_add(1,
                                                    std::memory_order_relaxed);
      if (mgr_ != nullptr) mgr_->EnterFailStop(st);
      return Result<size_t>(st);
    }
  }
  size_t bytes = sealed->reserved;
  auto& stats = IoStats::Global();
  stats.wal_bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  stats.wal_flushes.fetch_add(1, std::memory_order_relaxed);
  if (mgr_ != nullptr) {
    mgr_->pstats_.records_flushed.fetch_add(sealed->records,
                                            std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    flushed_lsn_.store(sealed->last_lsn, std::memory_order_release);
    flushed_gsn_.store(std::max(flushed_gsn_.load(std::memory_order_relaxed),
                                sealed->max_gsn),
                       std::memory_order_release);
    sealed->Reset();
    // Pending metadata now reflects only the (new) active buffer.
    first_pending_gsn_.store(active_->min_gsn, std::memory_order_release);
    commit_pending_.store(active_->has_commit, std::memory_order_release);
  }
  if (mgr_ != nullptr) mgr_->AddBytesFlushed(bytes);
  WakeDurableWaiters();
  if (mgr_ != nullptr) mgr_->WakeRemoteWaiters();
  return Result<size_t>(bytes);
}

void WalWriter::WaitDurable(uint64_t lsn) {
  if (flushed_lsn() >= lsn) return;
  DurableWaiter node;
  node.lsn = lsn;
  std::unique_lock<std::mutex> lk(wait_mu_);
  // Re-check after locking: WakeDurableWaiters publishes flushed_lsn before
  // taking wait_mu_, so a flush completing before this point is visible.
  if (flushed_lsn() >= lsn) return;
  // Fail-stop raises the flag before sweeping wait lists, so checking here
  // under wait_mu_ guarantees we either see it or get swept: never park on
  // a flush that will not happen. The caller re-checks durability.
  if (mgr_ != nullptr && mgr_->fail_stopped()) return;
  wait_list_.push_back(&node);
  node.cv.wait(lk, [&] { return node.ready; });
}

void WalWriter::WakeDurableWaiters() {
  std::lock_guard<std::mutex> lk(wait_mu_);
  if (wait_list_.empty()) return;
  uint64_t durable = flushed_lsn();
  auto keep = wait_list_.begin();
  for (auto* w : wait_list_) {
    if (w->lsn <= durable) {
      w->ready = true;
      w->cv.notify_one();
    } else {
      *keep++ = w;
    }
  }
  wait_list_.erase(keep, wait_list_.end());
}

Status WalWriter::TruncateAndReset() {
  // Take both locks so an in-flight Flush (buffer sealed, bytes not yet
  // appended) can never interleave with the truncate.
  std::lock_guard<std::mutex> flush_lk(flush_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    AwaitEncoded(active_);
    bufs_[0].Reset();
    bufs_[1].Reset();
    Status st = file_->Truncate(0);
    if (st.ok()) st = file_->Sync();
    if (!st.ok()) {
      // A failed truncate/sync leaves the on-disk log in an unknown state;
      // durability can no longer be promised.
      if (mgr_ != nullptr) mgr_->EnterFailStop(st);
      return st;
    }
    flushed_lsn_.store(appended_lsn_.load(std::memory_order_relaxed),
                       std::memory_order_release);
    flushed_gsn_.store(appended_gsn_.load(std::memory_order_relaxed),
                       std::memory_order_release);
    first_pending_gsn_.store(0, std::memory_order_release);
    commit_pending_.store(false, std::memory_order_release);
  }
  WakeDurableWaiters();
  if (mgr_ != nullptr) mgr_->WakeRemoteWaiters();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WalManager
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WalManager>> WalManager::Open(Env* env,
                                                     const Options& options) {
  std::unique_ptr<WalManager> mgr(new WalManager(options));
  mgr->sync_enabled_.store(options.sync_on_flush, std::memory_order_relaxed);
  PHOEBE_RETURN_IF_ERROR(env->CreateDir(options.dir));
  for (uint32_t i = 0; i < options.num_writers; ++i) {
    Env::OpenOptions fo;
    std::unique_ptr<File> file;
    Status st = env->OpenFile(
        options.dir + "/wal_" + std::to_string(i) + ".log", fo, &file);
    if (!st.ok()) return Result<std::unique_ptr<WalManager>>(st);
    auto writer = std::make_unique<WalWriter>(
        i, std::move(file), &mgr->sync_enabled_,
        options.writer_buffer_bytes);
    writer->set_manager(mgr.get());
    mgr->writers_.push_back(std::move(writer));
  }
  uint32_t nf = std::max<uint32_t>(1, options.flusher_threads);
  for (uint32_t i = 0; i < nf; ++i) {
    mgr->flushers_.emplace_back([m = mgr.get(), i] { m->FlusherMain(i); });
  }
  return Result<std::unique_ptr<WalManager>>(std::move(mgr));
}

WalManager::~WalManager() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(flusher_mu_);
  }
  flusher_cv_.notify_all();
  for (auto& t : flushers_) t.join();
  // Final drain so shutdown never loses buffered records.
  for (auto& w : writers_) {
    (void)w->Flush();
  }
}

void WalManager::KickFlusher() {
  pstats_.commit_kicks.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(flusher_mu_);
    kicks_.fetch_add(1, std::memory_order_relaxed);
  }
  flusher_cv_.notify_all();
}

void WalManager::FlusherMain(uint32_t flusher_id) {
  const uint32_t num_flushers =
      std::max<uint32_t>(1, options_.flusher_threads);
  uint64_t seen_kicks = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (fail_stopped()) {
      // Nothing to flush ever again; park instead of hammering a dead
      // device (wake promptly on shutdown).
      std::unique_lock<std::mutex> lk(flusher_mu_);
      flusher_cv_.wait_for(lk, std::chrono::milliseconds(10), [&] {
        return stop_.load(std::memory_order_acquire);
      });
      continue;
    }
    size_t wrote = 0;
    // Commit-priority pass: writers with buffered commit records first, so
    // a commit waits ~one flush instead of a full round over all writers
    // (this is what makes RFA's local-only wait visibly cheaper than the
    // global wait).
    for (uint32_t i = flusher_id; i < writers_.size(); i += num_flushers) {
      if (!writers_[i]->HasPendingCommit()) continue;
      Result<size_t> r = writers_[i]->Flush();
      if (r.ok()) wrote += r.value();
    }
    for (uint32_t i = flusher_id; i < writers_.size(); i += num_flushers) {
      if (!writers_[i]->HasPending()) continue;
      Result<size_t> r = writers_[i]->Flush();
      if (r.ok()) wrote += r.value();
    }
    if (wrote == 0) {
      // Sleep until the flush interval elapses or a commit append kicks us.
      std::unique_lock<std::mutex> lk(flusher_mu_);
      flusher_cv_.wait_for(
          lk, std::chrono::microseconds(options_.flush_interval_us), [&] {
            return stop_.load(std::memory_order_acquire) ||
                   kicks_.load(std::memory_order_relaxed) != seen_kicks;
          });
      seen_kicks = kicks_.load(std::memory_order_relaxed);
    }
  }
}

void WalManager::OnPageRead(Transaction* txn, BufferFrame* frame) {
  uint64_t page_gsn = frame->page_gsn.load(std::memory_order_acquire);
  if (page_gsn == 0) return;
  WalWriter& w = WriterFor(txn->slot_id());
  w.RaiseGsn(page_gsn);
  txn->max_gsn = std::max(txn->max_gsn, page_gsn);
  if (!options_.enable_rfa) {
    txn->remote_dependency = true;
    return;
  }
  uint32_t last = frame->last_writer.load(std::memory_order_acquire);
  if (last != ~0u && last != w.id() &&
      WriterFor(last).flushed_gsn() < page_gsn) {
    txn->remote_dependency = true;
  }
}

uint64_t WalManager::OnPageWrite(Transaction* txn, BufferFrame* frame) {
  WalWriter& w = WriterFor(txn->slot_id());
  uint64_t page_gsn = frame->page_gsn.load(std::memory_order_relaxed);
  uint32_t last = frame->last_writer.load(std::memory_order_relaxed);
  if (!options_.enable_rfa) {
    txn->remote_dependency = true;
  } else if (last != ~0u && last != w.id() &&
             WriterFor(last).flushed_gsn() < page_gsn) {
    txn->remote_dependency = true;
  }
  uint64_t gsn = std::max(w.LoadGsn(), page_gsn) + 1;
  w.RaiseGsn(gsn);
  frame->page_gsn.store(gsn, std::memory_order_release);
  frame->last_writer.store(w.id(), std::memory_order_release);
  txn->max_gsn = std::max(txn->max_gsn, gsn);
  return gsn;
}

void WalManager::LogData(Transaction* txn, WalRecordType type, uint64_t gsn,
                         Slice payload) {
  ComponentScope prof(Component::kWal);
  txn->last_lsn =
      WriterFor(txn->slot_id()).Append(type, txn->xid(), gsn, payload);
}

void WalManager::LogOffPageData(Transaction* txn, WalRecordType type,
                                Slice payload) {
  WalWriter& w = WriterFor(txn->slot_id());
  uint64_t gsn = w.LoadGsn() + 1;
  w.RaiseGsn(gsn);
  LogData(txn, type, gsn, payload);
}

void WalManager::LogCommit(Transaction* txn, Timestamp cts) {
  ComponentScope prof(Component::kWal);
  WalWriter& w = WriterFor(txn->slot_id());
  txn->last_lsn = w.Append(WalRecordType::kCommit, txn->xid(), w.LoadGsn(),
                           WalRecordCodec::CommitPayload(cts));
}

void WalManager::LogAbort(Transaction* txn) {
  WalWriter& w = WriterFor(txn->slot_id());
  w.Append(WalRecordType::kAbort, txn->xid(), w.LoadGsn(), Slice());
}

uint64_t WalManager::GlobalFlushedGsn(uint64_t cap) const {
  uint64_t min_gsn = cap;
  for (const auto& w : writers_) {
    uint64_t appended = w->appended_gsn();
    uint64_t flushed = w->flushed_gsn();
    if (flushed >= appended) continue;  // fully durable
    uint64_t first_pending = w->FirstPendingGsn();
    if (first_pending > cap) continue;  // nothing pending at/below cap
    min_gsn = std::min(min_gsn, flushed);
  }
  return min_gsn;
}

bool WalManager::CommitDurable(const Transaction* txn) const {
  const WalWriter& w = WriterFor(txn->slot_id());
  if (w.flushed_lsn() < txn->last_lsn) return false;
  if (txn->remote_dependency) {
    // Remote dependency: every other writer must be durable up to our
    // max GSN (or have nothing pending below it).
    if (GlobalFlushedGsn(txn->max_gsn) < txn->max_gsn) return false;
  }
  return true;
}

void WalManager::WaitCommitDurable(const Transaction* txn) {
  if (CommitDurable(txn)) return;
  if (!txn->remote_dependency) {
    // RFA fast path: only this slot's writer matters; park on its wait list.
    WriterFor(txn->slot_id()).WaitDurable(txn->last_lsn);
    return;
  }
  RemoteWaiter node;
  node.txn = txn;
  std::unique_lock<std::mutex> lk(remote_mu_);
  // Re-check under the lock: flushes publish durability before taking
  // remote_mu_ in WakeRemoteWaiters, so no wakeup can be lost.
  if (CommitDurable(txn)) return;
  // Same protocol as WalWriter::WaitDurable: fail-stop raises its flag
  // before sweeping remote_waiters_, so we either see it here or get swept.
  if (fail_stopped()) return;
  remote_waiters_.push_back(&node);
  node.cv.wait(lk, [&] { return node.ready; });
}

void WalManager::WakeRemoteWaiters() {
  std::lock_guard<std::mutex> lk(remote_mu_);
  if (remote_waiters_.empty()) return;
  auto keep = remote_waiters_.begin();
  for (auto* w : remote_waiters_) {
    if (CommitDurable(w->txn)) {
      w->ready = true;
      w->cv.notify_one();
    } else {
      *keep++ = w;
    }
  }
  remote_waiters_.erase(keep, remote_waiters_.end());
}

Status WalManager::TruncateAll() {
  for (auto& w : writers_) {
    PHOEBE_RETURN_IF_ERROR(w->TruncateAndReset());
  }
  return Status::OK();
}

Result<uint64_t> WalManager::QuiesceCut() {
  using R = Result<uint64_t>;
  if (fail_stopped()) return R(fail_stop_status());
  uint64_t cut = 0;
  for (auto& w : writers_) {
    if (w->HasPending()) {
      Result<size_t> r = w->Flush();
      if (!r.ok()) return R(r.status());
    }
    cut = std::max(cut, w->appended_gsn());
    // A restart restores the previous watermark as the GSN floor (see
    // RaiseGsnFloor); the cut must stay monotonic across it even when
    // nothing was appended since.
    cut = std::max(cut, w->LoadGsn());
  }
  // Writers idle at the cut would otherwise reuse GSNs at or below the
  // watermark for their next records; raise them all past it.
  for (auto& w : writers_) w->RaiseGsn(cut);
  return R(cut);
}

void WalManager::RaiseGsnFloor(uint64_t gsn) {
  for (auto& w : writers_) w->RaiseGsn(gsn);
}

Status WalManager::fail_stop_status() const {
  std::lock_guard<std::mutex> lk(fail_mu_);
  std::string msg = "WAL fail-stop: commits disabled";
  if (!fail_status_.ok()) msg += " (" + fail_status_.ToString() + ")";
  return Status::Unavailable(std::move(msg));
}

void WalManager::EnterFailStop(const Status& cause) {
  {
    std::lock_guard<std::mutex> lk(fail_mu_);
    if (fail_status_.ok()) fail_status_ = cause;  // keep the first failure
  }
  fail_stopped_.store(true, std::memory_order_release);
  // Sweep every parked commit waiter. Waiters re-check the fail-stop flag
  // under their list mutex before parking, so raising the flag above and
  // sweeping below leaves no thread asleep. Woken commits re-check
  // CommitDurable and surface kUnavailable instead of acknowledging.
  for (auto& w : writers_) {
    std::lock_guard<std::mutex> lk(w->wait_mu_);
    for (auto* node : w->wait_list_) {
      node->ready = true;
      node->cv.notify_one();
    }
    w->wait_list_.clear();
  }
  {
    std::lock_guard<std::mutex> lk(remote_mu_);
    for (auto* node : remote_waiters_) {
      node->ready = true;
      node->cv.notify_one();
    }
    remote_waiters_.clear();
  }
}

}  // namespace phoebe
