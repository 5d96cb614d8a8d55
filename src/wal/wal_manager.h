#ifndef PHOEBE_WAL_WAL_MANAGER_H_
#define PHOEBE_WAL_WAL_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_frame.h"
#include "common/constants.h"
#include "common/status.h"
#include "io/env.h"
#include "txn/transaction.h"
#include "wal/record.h"

namespace phoebe {

class WalManager;

/// One WAL writer per task slot (Section 8): transactions of a slot append
/// to a private in-memory buffer with a strictly increasing local LSN; group
/// flusher threads drain the buffers to per-slot files.
///
/// The writer is a double-buffered, reservation-based pipeline: Append takes
/// `mu_` only long enough to reserve space in the active buffer and assign
/// the LSN, then encodes into the reservation outside the lock. Flush seals
/// the active buffer (swapping in the drained shadow), waits for in-flight
/// reservations to finish encoding, and drains the sealed buffer to disk —
/// so an fdatasync in progress never blocks that slot's appends.
class WalWriter {
 public:
  WalWriter(uint32_t id, std::unique_ptr<File> file,
            const std::atomic<bool>* sync_on_flush, size_t buffer_bytes);

  /// Appends a record, returning its LSN.
  uint64_t Append(WalRecordType type, Xid xid, uint64_t gsn, Slice payload);

  /// Seals and drains the pipeline to disk (called by a flusher thread, or
  /// inline by an appender that found the active buffer full). Returns bytes
  /// written.
  Result<size_t> Flush();

  /// Blocks until flushed_lsn() >= lsn using the per-writer commit wait
  /// list: a durable flush wakes exactly the waiters whose LSN it covers.
  void WaitDurable(uint64_t lsn);

  uint64_t flushed_lsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }
  uint64_t flushed_gsn() const {
    return flushed_gsn_.load(std::memory_order_acquire);
  }
  uint64_t appended_lsn() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }
  uint64_t appended_gsn() const {
    return appended_gsn_.load(std::memory_order_acquire);
  }
  bool HasPending() const {
    return appended_lsn() > flushed_lsn();
  }
  /// True while an un-flushed commit record sits in the pipeline; flushers
  /// prioritize these writers so commit latency tracks one flush, not a
  /// whole round over all writers.
  bool HasPendingCommit() const {
    return commit_pending_.load(std::memory_order_acquire);
  }
  /// Smallest GSN among buffered records (0 when the pipeline is empty).
  /// Lets the RFA global wait skip writers whose pending records are all
  /// above the awaited GSN.
  uint64_t FirstPendingGsn() const {
    return first_pending_gsn_.load(std::memory_order_acquire);
  }

  /// Writer GSN counter. Per-slot writers are touched only by the owning
  /// worker, but baseline single-writer mode shares one writer across all
  /// slots, so updates go through max-CAS.
  std::atomic<uint64_t> cur_gsn{0};
  uint64_t LoadGsn() const { return cur_gsn.load(std::memory_order_acquire); }
  void RaiseGsn(uint64_t gsn) {
    uint64_t cur = cur_gsn.load(std::memory_order_relaxed);
    while (gsn > cur && !cur_gsn.compare_exchange_weak(
                            cur, gsn, std::memory_order_acq_rel)) {
    }
  }

  uint32_t id() const { return id_; }

  Status TruncateAndReset();

  /// Wires the owning manager so inline flushes can wake remote-dependency
  /// waiters and kick the flusher on buffered commits.
  void set_manager(WalManager* mgr) { mgr_ = mgr; }

 private:
  friend class WalManager;

  /// A half of the double buffer. `reserved`/metadata are guarded by the
  /// writer's `mu_`; `filled` is advanced by appenders after they finish
  /// encoding outside the lock, and the flusher spins filled == reserved
  /// before touching the bytes.
  struct LogBuffer {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t reserved = 0;
    std::atomic<size_t> filled{0};
    uint64_t last_lsn = 0;
    uint64_t min_gsn = 0;  // 0 = empty
    uint64_t max_gsn = 0;
    uint32_t records = 0;
    bool has_commit = false;

    bool empty() const { return reserved == 0; }
    void Reset() {
      reserved = 0;
      filled.store(0, std::memory_order_relaxed);
      last_lsn = 0;
      min_gsn = 0;
      max_gsn = 0;
      records = 0;
      has_commit = false;
    }
  };

  /// Per-writer commit wait list entry (stack-allocated by WaitDurable).
  struct DurableWaiter {
    uint64_t lsn;
    bool ready = false;
    std::condition_variable cv;
  };

  /// Flush with `flush_mu_` already held.
  Result<size_t> FlushLocked();
  /// Slow path for records larger than the buffer capacity: drain the
  /// pipeline, then write the record directly.
  uint64_t AppendOversize(WalRecordType type, Xid xid, uint64_t gsn,
                          Slice payload, size_t len);
  /// Record reservation-side metadata for a record entering buffer `b`.
  /// Requires `mu_`.
  uint64_t ReserveMetadata(LogBuffer* b, WalRecordType type, uint64_t gsn,
                           size_t len);
  /// Wakes wait-list entries covered by the current flushed LSN.
  void WakeDurableWaiters();
  /// Spins until every in-flight reservation of `b` finished encoding.
  static void AwaitEncoded(const LogBuffer* b);

  uint32_t id_;
  std::unique_ptr<File> file_;
  const std::atomic<bool>* sync_on_flush_;
  WalManager* mgr_ = nullptr;

  /// Guards reservations, the active-buffer pointer, and LSN assignment.
  std::mutex mu_;
  /// Serializes whole Flush() calls so file bytes and flushed_lsn stay in
  /// LSN order when a commit-priority flush races the round-robin flusher.
  /// Lock order: flush_mu_ before mu_.
  std::mutex flush_mu_;
  LogBuffer bufs_[2];
  LogBuffer* active_;  // guarded by mu_
  uint64_t next_lsn_ = 1;

  std::atomic<uint64_t> appended_lsn_{0};
  std::atomic<uint64_t> appended_gsn_{0};
  std::atomic<uint64_t> flushed_lsn_{0};
  std::atomic<uint64_t> flushed_gsn_{0};
  std::atomic<uint64_t> first_pending_gsn_{0};
  std::atomic<bool> commit_pending_{false};

  std::mutex wait_mu_;
  std::vector<DurableWaiter*> wait_list_;
};

/// Parallel WAL with Remote Flush Avoidance (Section 8).
///
/// GSN protocol: every writer keeps a local GSN counter; modifying a page
/// sets gsn = max(writer_gsn, page_gsn) + 1 and stamps the page. A
/// transaction that reads or writes a page last stamped by a *different*
/// writer whose log is not yet durable acquires a remote dependency: its
/// commit then waits for the global flushed GSN instead of only its own
/// writer (the RFA fast path).
class WalManager {
 public:
  struct Options {
    std::string dir;
    uint32_t num_writers = 1;
    uint32_t flusher_threads = 1;
    bool sync_on_flush = true;
    bool enable_rfa = true;     // ablation switch for Exp 3
    uint32_t flush_interval_us = 100;
    /// Per-writer log buffer capacity (×2 buffers per writer).
    size_t writer_buffer_bytes = 64 << 10;
  };

  /// Pipeline counters, reported by micro_wal / exp3.
  struct PipelineStats {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> records_flushed{0};
    std::atomic<uint64_t> inline_flushes{0};   // appender hit a full buffer
    std::atomic<uint64_t> oversize_appends{0};
    std::atomic<uint64_t> commit_kicks{0};     // flusher wakeups for commits
  };

  static Result<std::unique_ptr<WalManager>> Open(Env* env,
                                                  const Options& options);
  ~WalManager();

  /// Writer serving `slot` (identity in Phoebe mode; writer 0 serves every
  /// slot in baseline single-writer mode).
  WalWriter& WriterFor(uint32_t slot) {
    return *writers_[slot % writers_.size()];
  }
  const WalWriter& WriterFor(uint32_t slot) const {
    return *writers_[slot % writers_.size()];
  }
  uint32_t num_writers() const {
    return static_cast<uint32_t>(writers_.size());
  }

  /// --- GSN / RFA hooks (called by the table layer under page latches) ------

  /// Transaction read a page: propagate GSN and record remote dependencies.
  void OnPageRead(Transaction* txn, BufferFrame* frame);

  /// Transaction is modifying a page: assigns the record GSN, stamps the
  /// page, and records remote dependencies. Returns the GSN.
  uint64_t OnPageWrite(Transaction* txn, BufferFrame* frame);

  /// Appends a logical data record for `txn`.
  void LogData(Transaction* txn, WalRecordType type, uint64_t gsn,
               Slice payload);

  /// Appends a data record that changes no buffered page (the delete of a
  /// frozen row) under the writer's next GSN.
  void LogOffPageData(Transaction* txn, WalRecordType type, Slice payload);

  /// Appends the commit record; returns OK when the commit is durable or
  /// kBlocked(kAsyncRead)-style wait is needed (coroutine mode polls with
  /// CommitDurable).
  void LogCommit(Transaction* txn, Timestamp cts);

  /// Appends the abort record of a transaction that logged data.
  void LogAbort(Transaction* txn);

  /// True once the commit of `txn` (logged via LogCommit) is durable under
  /// the RFA rule: own writer flushed past the commit LSN, plus the global
  /// flushed GSN when a remote dependency exists.
  bool CommitDurable(const Transaction* txn) const;

  /// Blocks until CommitDurable (synchronous mode). Local-only commits park
  /// on their writer's wait list; remote-dependency commits park on the
  /// manager-level (LSN, GSN) wait list and are woken by whichever flush
  /// satisfies the global-GSN condition.
  void WaitCommitDurable(const Transaction* txn);

  /// Minimum durable GSN across writers with pending data (writers that are
  /// fully flushed do not bound the result below `cap`).
  uint64_t GlobalFlushedGsn(uint64_t cap) const;

  /// Post-checkpoint truncation of all WAL files.
  Status TruncateAll();

  /// Checkpoint GSN cut. Call only with the system quiesced (no appends in
  /// flight): flushes every writer's pending bytes and returns the
  /// checkpoint watermark — the maximum appended GSN across writers. Every
  /// writer's GSN counter is raised to the watermark so all records
  /// appended after the cut (data and commits alike) carry a strictly
  /// greater GSN; recovery can then skip everything at or below it.
  Result<uint64_t> QuiesceCut();

  /// Raises every writer's GSN counter to at least `gsn`. Called at open
  /// with the catalog's checkpoint watermark: a restarted process would
  /// otherwise assign fresh records GSNs at or below the watermark, and the
  /// next recovery would silently skip them.
  void RaiseGsnFloor(uint64_t gsn);

  /// Aggregate stats.
  uint64_t TotalBytesFlushed() const {
    return bytes_flushed_.load(std::memory_order_relaxed);
  }
  PipelineStats& pipeline_stats() { return pstats_; }
  const PipelineStats& pipeline_stats() const { return pstats_; }

  /// Toggles fdatasync on WAL flush (loaders disable during population).
  void set_sync_on_flush(bool on) {
    sync_enabled_.store(on, std::memory_order_relaxed);
  }

  /// --- Fail-stop (graceful degradation on log-device failure) -------------
  ///
  /// A WAL append or fsync failure means durability can no longer be
  /// promised, and a once-failed fsync must never be trusted to have made
  /// earlier bytes durable ("fsync-gate"). The manager therefore goes
  /// fail-stop: the failing flush wakes every parked commit waiter, no
  /// later commit can become durable, and Database::Commit rejects with
  /// kUnavailable. Commits that were already durable before the failure may
  /// still acknowledge — their bytes are on disk. Recovery after reopen
  /// decides the fate of everything else.

  /// True once a WAL append/sync failure disabled commits.
  bool fail_stopped() const {
    return fail_stopped_.load(std::memory_order_acquire);
  }
  /// kUnavailable wrapping the first failure; kOk-based message if somehow
  /// called before any failure.
  Status fail_stop_status() const;
  /// Records `cause`, raises the fail-stop flag, and wakes every parked
  /// durable/remote commit waiter so none sleeps forever on a flush that
  /// will never happen.
  void EnterFailStop(const Status& cause);

 private:
  friend class WalWriter;

  explicit WalManager(const Options& options) : options_(options) {}

  void FlusherMain(uint32_t flusher_id);
  void AddBytesFlushed(uint64_t n) {
    bytes_flushed_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Wakes remote-dependency waiters whose commit became durable; called by
  /// writers after every successful flush.
  void WakeRemoteWaiters();
  /// Nudges a sleeping flusher (a commit record was just buffered).
  void KickFlusher();

  /// Manager-level wait list entry for remote-dependency commits.
  struct RemoteWaiter {
    const Transaction* txn;
    bool ready = false;
    std::condition_variable cv;
  };

  Options options_;
  std::atomic<bool> sync_enabled_{true};
  std::atomic<bool> fail_stopped_{false};
  mutable std::mutex fail_mu_;
  Status fail_status_;  // first failure; guarded by fail_mu_
  std::vector<std::unique_ptr<WalWriter>> writers_;
  std::vector<std::thread> flushers_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> bytes_flushed_{0};
  PipelineStats pstats_;

  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  std::atomic<uint64_t> kicks_{0};

  mutable std::mutex remote_mu_;
  std::vector<RemoteWaiter*> remote_waiters_;
};

}  // namespace phoebe

#endif  // PHOEBE_WAL_WAL_MANAGER_H_
