#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/arena.h"
#include "common/profiler.h"
#include "txn/twin_table.h"
#include "wal/recovery.h"

namespace phoebe {

namespace {
double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Database::Database(const DatabaseOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {
  if (options_.wal_dir.empty()) options_.wal_dir = options_.path + "/wal";
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  std::unique_ptr<Database> db(new Database(options));
  Status st = db->Init();
  if (!st.ok()) return Result<std::unique_ptr<Database>>(st);
  st = db->LoadCatalogAndRecover();
  if (!st.ok()) return Result<std::unique_ptr<Database>>(st);
  db->StartCheckpointer();
  return Result<std::unique_ptr<Database>>(std::move(db));
}

Database::~Database() {
  StopCheckpointer();
  // Best-effort clean shutdown; skip when initialization never completed
  // (e.g. the directory lock was held by another instance).
  if (!closed_ && txn_mgr_ != nullptr && wal_ != nullptr) {
    (void)Close();
  } else if (lock_handle_ >= 0) {
    env_->UnlockFile(lock_handle_);
    lock_handle_ = -1;
  }
  // A clean Close() checkpoints and frees every twin table; a crash-style
  // teardown (TEST_SimulateCrash) skips that, so sweep the frames once the
  // WAL flushers are stopped. The undo records a twin table points at are
  // owned by the transaction slots, so deleting only the tables is safe.
  wal_.reset();
  if (pool_ != nullptr) {
    pool_->ForEachFrame([](BufferFrame* bf) { TwinTable::Destroy(bf); });
  }
}

Status Database::Init() {
  PHOEBE_RETURN_IF_ERROR(env_->CreateDir(options_.path));
  PHOEBE_RETURN_IF_ERROR(env_->CreateDir(options_.wal_dir));

  // One Database instance per directory (advisory lock, released on Close
  // or process exit).
  Result<int> lock = env_->LockFile(options_.path + "/LOCK");
  if (!lock.ok()) return lock.status();
  lock_handle_ = lock.value();

  throttle_ = std::make_unique<BandwidthThrottle>(options_.io_bandwidth_limit);

  auto data_file =
      PageFile::Open(env_, options_.path + "/data.pages", options_.direct_io);
  if (!data_file.ok()) return data_file.status();
  data_file_ = std::move(data_file.value());
  if (options_.io_bandwidth_limit > 0) {
    data_file_->set_throttle(throttle_.get());
  }

  BufferPool::Options pool_opts;
  pool_opts.buffer_bytes = options_.buffer_bytes;
  pool_opts.partitions = options_.workers;
  pool_opts.io_threads = options_.io_threads;
  pool_ = std::make_unique<BufferPool>(pool_opts, data_file_.get());
  registry_ = std::make_unique<BTreeRegistry>(pool_.get());

  txn_mgr_ = std::make_unique<TxnManager>(options_.total_slots(), &clock_);
  held_locks_.resize(options_.total_slots());

  WalManager::Options wal_opts;
  wal_opts.dir = options_.wal_dir;
  wal_opts.num_writers =
      options_.baseline_single_wal_writer ? 1 : options_.total_slots();
  wal_opts.flusher_threads = options_.wal_flushers;
  wal_opts.sync_on_flush = options_.wal_sync;
  wal_opts.enable_rfa =
      options_.enable_rfa && !options_.baseline_single_wal_writer;
  wal_opts.flush_interval_us = options_.wal_flush_interval_us;
  wal_opts.writer_buffer_bytes =
      static_cast<size_t>(options_.wal_writer_buffer_bytes);
  auto wal = WalManager::Open(env_, wal_opts);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal.value());

  lock_table_ = std::make_unique<GlobalLockTable>();
  pg_snapshots_ = std::make_unique<PgSnapshotManager>(txn_mgr_.get());

  deps_.options = &options_;
  deps_.env = env_;
  deps_.dir = options_.path;
  deps_.pool = pool_.get();
  deps_.registry = registry_.get();
  deps_.clock = &clock_;
  deps_.txn_mgr = txn_mgr_.get();
  deps_.wal = wal_.get();
  deps_.lock_table = lock_table_.get();
  deps_.held_locks = &held_locks_;

  // GC reclaim hook: purge deleted tuples / stale index entries. GC runs
  // outside any transaction, so each GC thread keeps its own scratch arena
  // for the rows and keys of one reclaimed record.
  txn_mgr_->set_reclaim_hook([this](const UndoRecord& rec) {
    Table* table = TableById(rec.relation);
    if (table != nullptr) {
      static thread_local Arena scratch;
      scratch.Reset();
      OpContext ctx;
      ctx.synchronous = true;
      ctx.count_accesses = false;
      ctx.arena = &scratch;
      table->OnUndoReclaimed(&ctx, rec);
    }
  });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Catalog & recovery
// ---------------------------------------------------------------------------

Status Database::PersistCatalog(bool clean) {
  CatalogData data;
  data.clean = clean;
  data.next_relation_id = next_relation_id_;
  for (const auto& t : tables_) {
    CatalogData::TableEntry e;
    e.name = t->name();
    e.id = t->id();
    e.schema = t->schema();
    e.next_row_id = t->next_row_id();
    e.root = kInvalidPageId;  // filled by CheckpointNow
    data.tables.push_back(std::move(e));
    for (size_t i = 0; i < t->num_indexes(); ++i) {
      const IndexDef& idx = t->index(i);
      CatalogData::IndexEntry ie;
      ie.name = idx.name;
      ie.id = idx.id;
      ie.table_id = t->id();
      ie.key_columns = idx.key_columns;
      ie.unique = idx.unique;
      ie.root = kInvalidPageId;
      data.indexes.push_back(std::move(ie));
    }
  }
  return Catalog::Save(env_, options_.path, data);
}

Status Database::LoadCatalogAndRecover() {
  Result<CatalogData> loaded = Catalog::Load(env_, options_.path);
  if (loaded.status().IsNotFound()) {
    return Status::OK();  // fresh database
  }
  if (!loaded.ok()) return loaded.status();
  const CatalogData& cat = loaded.value();
  next_relation_id_ = cat.next_relation_id;

  for (const auto& te : cat.tables) {
    auto table =
        std::make_unique<Table>(&deps_, te.name, te.id, te.schema);
    if (cat.clean && te.root != kInvalidPageId) {
      // Roll the frozen store back to its checkpoint-consistent state.
      // (Manifest/block bytes appended after the checkpoint belong to a
      // crashed epoch whose rows are still present in the tree image.)
      std::unique_ptr<File> mf;
      Env::OpenOptions fo;
      std::string mpath = options_.path + "/" + te.name + ".manifest";
      if (env_->FileExists(mpath)) {
        PHOEBE_RETURN_IF_ERROR(env_->OpenFile(mpath, fo, &mf));
        if (mf->Size() > te.frozen_manifest_len) {
          PHOEBE_RETURN_IF_ERROR(mf->Truncate(te.frozen_manifest_len));
        }
        mf.reset();
      }
      std::string bpath = options_.path + "/" + te.name + ".blocks";
      if (env_->FileExists(bpath)) {
        std::unique_ptr<File> bf;
        PHOEBE_RETURN_IF_ERROR(env_->OpenFile(bpath, fo, &bf));
        if (bf->Size() > te.frozen_blocks_len) {
          PHOEBE_RETURN_IF_ERROR(bf->Truncate(te.frozen_blocks_len));
        }
      }
      PHOEBE_RETURN_IF_ERROR(
          table->OpenFromCheckpoint(te.root, te.next_row_id));
    } else {
      // No usable checkpoint image: wipe per-table frozen state and rebuild
      // the tree from WAL history.
      PHOEBE_RETURN_IF_ERROR(
          FrozenStore::Destroy(env_, options_.path, te.name));
      PHOEBE_RETURN_IF_ERROR(table->Create());
    }
    Table* raw = table.get();
    tables_.push_back(std::move(table));
    tables_by_name_[raw->name()] = raw;
    tables_by_id_[raw->id()] = raw;
  }
  for (const auto& ie : cat.indexes) {
    Table* table = TableById(ie.table_id);
    if (table == nullptr) return Status::Corruption("index without table");
    PageId root = cat.clean ? ie.root : kInvalidPageId;
    PHOEBE_RETURN_IF_ERROR(table->AddIndex(ie.name, ie.id, ie.key_columns,
                                           ie.unique, root));
  }
  if (cat.clean) {
    // A durable checkpoint image now exists on disk: no page of it may be
    // freed for reuse or overwritten by eviction until the next catalog
    // commit, so the image stays intact if we crash again (including
    // mid-replay).
    data_file_->PublishImage();
  }
  // The watermark is only trustworthy against a clean catalog; a stale or
  // unclean one falls back to full replay.
  uint64_t watermark = cat.clean ? cat.checkpoint_gsn : 0;
  uint64_t ckpt_ts = cat.clean ? cat.checkpoint_ts : 0;
  recovery_info_.used_checkpoint = cat.clean;
  // GSN counters restart at zero with the process; without re-raising them
  // past the watermark, records appended from now on would sit at or below
  // it and the *next* recovery would silently skip committed work.
  wal_->RaiseGsnFloor(watermark);
  return RunRecovery(watermark, ckpt_ts);
}

Status Database::RunRecovery(uint64_t watermark_gsn, uint64_t checkpoint_ts) {
  double t0 = NowMs();
  Result<WalRecovery::ScanResult> scan =
      WalRecovery::Scan(env_, options_.wal_dir, watermark_gsn);
  if (!scan.ok()) return scan.status();
  const auto& result = scan.value();
  // The clock restarts above everything ever observed: all WAL history
  // (including watermark-skipped records) and the checkpoint cut itself.
  clock_.AdvanceTo(std::max(result.max_ts, checkpoint_ts) + 1);
  recovery_info_.torn_tails = result.torn_tails;
  recovery_info_.watermark_gsn = watermark_gsn;
  recovery_info_.skipped_checkpointed = result.skipped_checkpointed;
  recovery_info_.wal_bytes_scanned = result.bytes_scanned;
  if (result.records.empty()) {
    recovery_info_.elapsed_ms = NowMs() - t0;
    return Status::OK();
  }

  recovery_info_.ran = true;
  recovery_info_.committed_txns = result.commits.size();
  recovery_info_.skipped_uncommitted = result.skipped_uncommitted;

  Arena scratch;  // one record's rows and keys, reset per record
  OpContext ctx;
  ctx.synchronous = true;
  ctx.count_accesses = false;
  ctx.arena = &scratch;

  Status st = WalRecovery::Replay(
      result, [&](const WalRecord& rec, Timestamp) -> Status {
        scratch.Reset();
        RelationId rel = 0;
        RowId rid = 0;
        Slice body;
        PHOEBE_RETURN_IF_ERROR(
            WalRecordCodec::ParseDataPayload(rec.payload, &rel, &rid, &body));
        Table* table = TableById(rel);
        if (table == nullptr) return Status::OK();  // dropped relation
        recovery_info_.records_replayed += 1;
        switch (rec.type) {
          case WalRecordType::kInsert:
            return table->ReplayInsert(&ctx, rid, body);
          case WalRecordType::kUpdate:
            return table->ReplayUpdate(&ctx, rid, body);
          case WalRecordType::kDelete:
            return table->ReplayDelete(&ctx, rid);
          default:
            return Status::OK();
        }
      });
  if (!st.ok()) return st;
  recovery_info_.elapsed_ms = NowMs() - t0;

  // Make the recovered state durable and truncate the log.
  return CheckpointNow();
}

std::string Database::RecoveryInfo::ToLine() const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "#RECOVERY ran=%d used_checkpoint=%d watermark=%llu replayed=%llu "
           "skipped_ckpt=%llu skipped_uncommitted=%llu committed_txns=%llu "
           "torn_tails=%llu wal_bytes=%llu elapsed_ms=%.2f",
           ran ? 1 : 0, used_checkpoint ? 1 : 0,
           static_cast<unsigned long long>(watermark_gsn),
           static_cast<unsigned long long>(records_replayed),
           static_cast<unsigned long long>(skipped_checkpointed),
           static_cast<unsigned long long>(skipped_uncommitted),
           static_cast<unsigned long long>(committed_txns),
           static_cast<unsigned long long>(torn_tails),
           static_cast<unsigned long long>(wal_bytes_scanned), elapsed_ms);
  return buf;
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<Table*> Database::CreateTable(const std::string& name,
                                     const Schema& schema) {
  std::lock_guard<std::mutex> lk(ddl_mu_);
  if (tables_by_name_.count(name) != 0) {
    return Result<Table*>(Status::AlreadyExists("table " + name));
  }
  RelationId id = next_relation_id_++;
  auto table = std::make_unique<Table>(&deps_, name, id, schema);
  Status st = table->Create();
  if (!st.ok()) return Result<Table*>(st);
  Table* raw = table.get();
  tables_.push_back(std::move(table));
  tables_by_name_[name] = raw;
  tables_by_id_[id] = raw;
  st = PersistCatalog(/*clean=*/false);
  if (!st.ok()) return Result<Table*>(st);
  return Result<Table*>(raw);
}

Result<Table*> Database::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> lk(ddl_mu_);
  auto it = tables_by_name_.find(name);
  if (it == tables_by_name_.end()) {
    return Result<Table*>(Status::NotFound("table " + name));
  }
  return Result<Table*>(it->second);
}

Table* Database::TableById(RelationId id) {
  std::lock_guard<std::mutex> lk(ddl_mu_);
  auto it = tables_by_id_.find(id);
  return it == tables_by_id_.end() ? nullptr : it->second;
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& index_name,
                             std::vector<uint32_t> key_columns, bool unique) {
  Result<Table*> t = GetTable(table);
  if (!t.ok()) return t.status();
  std::lock_guard<std::mutex> lk(ddl_mu_);
  RelationId id = next_relation_id_++;
  PHOEBE_RETURN_IF_ERROR(
      t.value()->AddIndex(index_name, id, std::move(key_columns), unique));
  return PersistCatalog(/*clean=*/false);
}

Status Database::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lk(ddl_mu_);
  auto it = tables_by_name_.find(name);
  if (it == tables_by_name_.end()) {
    return Status::NotFound("table " + name);
  }
  Table* table = it->second;
  OpContext ctx;
  ctx.synchronous = true;
  ctx.count_accesses = false;
  PHOEBE_RETURN_IF_ERROR(table->DropStorage(&ctx));
  tables_by_name_.erase(it);
  tables_by_id_.erase(table->id());
  for (auto t = tables_.begin(); t != tables_.end(); ++t) {
    if (t->get() == table) {
      tables_.erase(t);
      break;
    }
  }
  return PersistCatalog(/*clean=*/false);
}

Status Database::DropIndex(const std::string& table_name,
                           const std::string& index_name) {
  std::lock_guard<std::mutex> lk(ddl_mu_);
  auto it = tables_by_name_.find(table_name);
  if (it == tables_by_name_.end()) {
    return Status::NotFound("table " + table_name);
  }
  int idx = it->second->FindIndex(index_name);
  if (idx < 0) return Status::NotFound("index " + index_name);
  OpContext ctx;
  ctx.synchronous = true;
  ctx.count_accesses = false;
  PHOEBE_RETURN_IF_ERROR(
      it->second->DropIndexAt(&ctx, static_cast<size_t>(idx)));
  return PersistCatalog(/*clean=*/false);
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Transaction* Database::Begin(uint32_t slot_id, IsolationLevel iso) {
  Transaction* txn = txn_mgr_->Begin(slot_id, iso);
  if (options_.baseline_pg_snapshot) {
    PgSnapshot snap = pg_snapshots_->Take();
    txn_mgr_->SetSnapshot(txn, snap.xmax);
  }
  return txn;
}

void Database::StatementBegin(Transaction* txn) {
  if (txn->isolation() != IsolationLevel::kReadCommitted) return;
  if (options_.baseline_pg_snapshot) {
    // Traditional snapshot-by-scan (O(active transactions)).
    PgSnapshot snap = pg_snapshots_->Take();
    txn_mgr_->SetSnapshot(txn, snap.xmax);
  } else {
    // PhoebeDB: O(1) single-timestamp snapshot.
    txn_mgr_->RefreshStatementSnapshot(txn);
  }
}

Status Database::Commit(OpContext* ctx, Transaction* txn) {
  if (txn->read_only()) return CommitReadOnly(ctx, txn);
  if (txn->state() != TxnState::kCommitted) {
    // Fail-stop: once a WAL flush has failed, durability can no longer be
    // promised, so no new commit may even be logged. The transaction is left
    // un-finished — recovery after reopen decides its fate (it can only be
    // discarded: its commit record never became durable).
    if (wal_->fail_stopped()) return wal_->fail_stop_status();
    Timestamp cts = txn_mgr_->PrepareCommit(txn);
    wal_->LogCommit(txn, cts);
  }
  if (!wal_->CommitDurable(txn)) {
    if (!ctx->synchronous) {
      if (wal_->fail_stopped()) return wal_->fail_stop_status();
      return Status::Blocked(WaitKind::kCommitFlush);
    }
    wal_->WaitCommitDurable(txn);
    // CommitDurable is not monotonic (a fresh low-GSN append elsewhere can
    // re-raise the global wait), so only fail-stop — where no future flush
    // can ever satisfy it — turns a non-durable wakeup into a rejection.
    if (wal_->fail_stopped() && !wal_->CommitDurable(txn)) {
      return wal_->fail_stop_status();
    }
  }
  txn_mgr_->FinishTransaction(txn, /*committed=*/true);
  ReleaseBaselineLocks(txn);
  return Status::OK();
}

Status Database::CommitReadOnly(OpContext* ctx, Transaction* txn) {
  // Nothing to log, so no commit timestamp, commit record or flush wait. The
  // one duty left is not to acknowledge data whose commit could still be
  // lost: a commit finishes only once durable, so wait until every commit
  // this transaction read from has finished.
  for (;;) {
    // Fail-stop rejects every commit, as for writers.
    if (wal_->fail_stopped()) return wal_->fail_stop_status();
    TxnManager::SlotState* unfinished =
        txn_mgr_->UnfinishedObservedCommit(txn);
    if (unfinished == nullptr) break;
    if (!ctx->synchronous) return Status::Blocked(WaitKind::kCommitFlush);
    // Bounded so a commit that fail-stop rejected (and that therefore never
    // finishes) cannot hang the reader.
    txn_mgr_->WaitCommitFinished(unfinished, /*micros=*/1000);
  }
  txn_mgr_->FinishTransaction(txn, /*committed=*/true);
  ReleaseBaselineLocks(txn);
  return Status::OK();
}

void Database::ReleaseBaselineLocks(Transaction* txn) {
  if (!options_.baseline_global_lock_table) return;
  auto& held = held_locks_[txn->slot_id()];
  lock_table_->ReleaseAll(txn->xid(), held);
  held.clear();
}

Status Database::Abort(OpContext* ctx, Transaction* txn) {
  if (txn->state() == TxnState::kCommitted) {
    // Rolling back committed records would corrupt the version chains.
    return Status::InvalidArgument("abort after commit");
  }
  // A read-only transaction logged nothing, so it needs no kAbort record.
  const bool read_only = txn->read_only();
  // Roll back newest-to-oldest via the in-memory UNDO list; runs
  // synchronously (rollback paths never yield).
  Status result = Status::OK();
  UndoRecord* rec = txn->undo_head();
  auto& arena = txn_mgr_->slot(txn->slot_id()).arena;
  while (rec != nullptr) {
    UndoRecord* next = rec->txn_next;
    Table* table = TableById(rec->relation);
    if (table != nullptr) {
      Status st = table->RollbackRecord(ctx, txn, rec);
      if (!st.ok() && result.ok()) result = st;
    }
    arena.FreeAborted(rec);
    rec = next;
  }
  if (!read_only) wal_->LogAbort(txn);
  txn_mgr_->FinishTransaction(txn, /*committed=*/false);
  ReleaseBaselineLocks(txn);
  return result;
}

// ---------------------------------------------------------------------------
// Runtime wiring & maintenance
// ---------------------------------------------------------------------------

bool Database::EnterHook() {
  std::lock_guard<std::mutex> lk(hooks_mu_);
  if (hooks_paused_) return false;
  ++hooks_inflight_;
  return true;
}

void Database::ExitHook() {
  {
    std::lock_guard<std::mutex> lk(hooks_mu_);
    --hooks_inflight_;
  }
  hooks_cv_.notify_all();
}

void Database::PauseHooks() {
  std::unique_lock<std::mutex> lk(hooks_mu_);
  hooks_paused_ = true;
  hooks_cv_.wait(lk, [&] { return hooks_inflight_ == 0; });
}

void Database::ResumeHooks() {
  {
    std::lock_guard<std::mutex> lk(hooks_mu_);
    hooks_paused_ = false;
  }
  hooks_cv_.notify_all();
}

Scheduler::Hooks Database::MakeSchedulerHooks() {
  // Every hook passes the pause barrier: the checkpoint page walk mutates
  // pages and swips latch-free, so eviction, GC reclaim, and freeze/warm
  // sweeps must drain before it starts (a paused hook is simply skipped —
  // housekeeping is periodic and catches up on the next tick).
  Scheduler::Hooks hooks;
  hooks.page_swap = [this](uint32_t worker_id, OpContext* ctx) {
    if (!EnterHook()) return;
    if (pool_->NeedsEviction(worker_id)) {
      (void)registry_->EnsureFreeFrames(ctx, worker_id);
    }
    ExitHook();
  };
  hooks.run_gc = [this](uint32_t slot_id) {
    if (!EnterHook()) return;
    txn_mgr_->RunUndoGc(slot_id);
    ExitHook();
  };
  hooks.sweep = [this]() {
    if (!EnterHook()) return;
    pool_->AdvanceEpoch();
    txn_mgr_->SweepTwinTables();
    if (options_.enable_freeze) {
      OpContext ctx;
      ctx.synchronous = true;
      ctx.count_accesses = false;
      std::lock_guard<std::mutex> lk(ddl_mu_);
      for (auto& t : tables_) {
        (void)t->FreezePass(&ctx, /*max_leaves=*/4);
      }
      // Read-warming (Section 5.2 case 3): frozen blocks whose read count
      // crossed the threshold come back to hot storage under a maintenance
      // transaction on the last aux slot. BeginMaybe, not Begin: a hook
      // blocked on the checkpoint admission gate would deadlock against
      // PauseHooks waiting for this hook to finish.
      uint32_t slot = aux_slot(options_.aux_slots - 1);
      if (txn_mgr_->slot(slot).active_xid.load(std::memory_order_acquire) ==
          0) {
        Transaction* txn = txn_mgr_->BeginMaybe(slot, options_.default_isolation);
        if (txn != nullptr) {
          if (options_.baseline_pg_snapshot) {
            PgSnapshot snap = pg_snapshots_->Take();
            txn_mgr_->SetSnapshot(txn, snap.xmax);
          }
          bool warmed_any = false;
          for (auto& t : tables_) {
            Status st = t->WarmPass(&ctx, txn, /*max_rows=*/256);
            if (st.ok() && txn->undo_count() > 0) warmed_any = true;
          }
          if (warmed_any) {
            (void)Commit(&ctx, txn);
          } else {
            (void)Abort(&ctx, txn);
          }
        }
      }
    }
    ExitHook();
  };
  return hooks;
}

void Database::DrainGc() {
  for (int round = 0; round < 8; ++round) {
    for (uint32_t s = 0; s < txn_mgr_->num_slots(); ++s) {
      txn_mgr_->RunUndoGc(s);
    }
    txn_mgr_->SweepTwinTables();
    if (txn_mgr_->TotalLiveUndo() == 0) break;
  }
}

Status Database::CrashPoint(const char* point) {
  if (ckpt_crash_hook_ && ckpt_crash_hook_(point)) {
    return Status::Aborted(std::string("checkpoint crash hook: ") + point);
  }
  return Status::OK();
}

Status Database::CheckpointNow() {
  // Quiescence guard: the caller must already be quiescent (kAborted
  // otherwise) — RequestCheckpoint is the online variant that waits.
  std::lock_guard<std::mutex> lk(ckpt_mu_);
  txn_mgr_->BeginQuiesce();
  Status st;
  if (!txn_mgr_->AllSlotsIdle()) {
    st = Status::Aborted(
        "checkpoint requires quiescence: a slot has an active txn");
  } else if (txn_mgr_->TotalLiveUndo() != 0) {
    st = Status::Aborted(
        "checkpoint requires quiescence: run DrainGc() first");
  } else {
    st = CheckpointLocked();
  }
  txn_mgr_->EndQuiesce();
  return st;
}

Status Database::RequestCheckpoint() {
  std::lock_guard<std::mutex> lk(ckpt_mu_);
  ckpt_stats_.attempts.fetch_add(1, std::memory_order_relaxed);

  // Bounded admission barrier: stall new Begins, wait for active slots and
  // live undo to drain. On timeout, reopen the gate and report kAborted —
  // the caller backs off; running transactions are never aborted.
  txn_mgr_->BeginQuiesce();
  double deadline =
      NowMs() + static_cast<double>(options_.checkpoint_quiesce_timeout_ms);
  while (!txn_mgr_->AllSlotsIdle() || txn_mgr_->TotalLiveUndo() != 0) {
    if (txn_mgr_->AllSlotsIdle()) {
      // Slots drained; the remaining live undo is ours to reclaim.
      DrainGc();
      if (txn_mgr_->TotalLiveUndo() == 0) break;
    }
    if (NowMs() >= deadline) {
      txn_mgr_->EndQuiesce();
      ckpt_stats_.quiesce_timeouts.fetch_add(1, std::memory_order_relaxed);
      return Status::Aborted("checkpoint quiesce timeout");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  Status st = CheckpointLocked();
  txn_mgr_->EndQuiesce();
  if (st.ok()) {
    ckpt_stats_.completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    ckpt_stats_.failures.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

Status Database::CheckpointLocked() {
  // The page walk mutates pages, swips, and the free list latch-free; no
  // housekeeping hook (eviction, GC reclaim, freeze/warm sweep) may overlap.
  PauseHooks();
  struct HookResume {
    Database* db;
    ~HookResume() { db->ResumeHooks(); }
  } resume{this};

  // GSN cut: all records appended so far are <= cut; everything after the
  // gate reopens is > cut. Recovery skips records at or below it.
  Result<uint64_t> cut = wal_->QuiesceCut();
  if (!cut.ok()) return cut.status();

  OpContext ctx;
  ctx.synchronous = true;
  ctx.count_accesses = false;

  CatalogData data;
  data.clean = true;
  data.checkpoint_gsn = cut.value();
  data.checkpoint_ts = clock_.Current();
  data.next_relation_id = next_relation_id_;
  for (auto& t : tables_) {
    Result<PageId> root = t->Checkpoint(&ctx);
    if (!root.ok()) return root.status();
    PHOEBE_RETURN_IF_ERROR(CrashPoint("mid_page_writes"));
    CatalogData::TableEntry e;
    e.name = t->name();
    e.id = t->id();
    e.schema = t->schema();
    e.next_row_id = t->next_row_id();
    e.root = root.value();
    e.max_frozen_row_id = t->frozen()->max_frozen_row_id();
    // kNotFound legitimately means "no frozen state yet" (length 0); a real
    // stat failure must abort the checkpoint — recording 0 for a file that
    // exists would truncate valid frozen history on the next open.
    Result<uint64_t> mlen =
        env_->FileSize(options_.path + "/" + t->name() + ".manifest");
    if (!mlen.ok() && !mlen.status().IsNotFound()) return mlen.status();
    Result<uint64_t> blen =
        env_->FileSize(options_.path + "/" + t->name() + ".blocks");
    if (!blen.ok() && !blen.status().IsNotFound()) return blen.status();
    e.frozen_manifest_len = mlen.ok() ? mlen.value() : 0;
    e.frozen_blocks_len = blen.ok() ? blen.value() : 0;
    for (size_t i = 0; i < t->num_indexes(); ++i) {
      IndexDef& idx = t->index(i);
      Result<PageId> iroot = idx.tree->Checkpoint(&ctx);
      if (!iroot.ok()) return iroot.status();
      CatalogData::IndexEntry ie;
      ie.name = idx.name;
      ie.id = idx.id;
      ie.table_id = t->id();
      ie.key_columns = idx.key_columns;
      ie.unique = idx.unique;
      ie.root = iroot.value();
      data.indexes.push_back(std::move(ie));
    }
    data.tables.push_back(std::move(e));
  }
  PHOEBE_RETURN_IF_ERROR(data_file_->Sync());
  PHOEBE_RETURN_IF_ERROR(CrashPoint("after_page_writes"));

  // Publication order is the crash-safety spine:
  //   1. synced temp catalog      (crash -> old catalog + full WAL: replay)
  //   2. rename + dir fsync       (crash -> new catalog + stale WAL: the
  //                                watermark skips records <= cut)
  //   3. WAL truncation           (crash -> new catalog + empty WAL)
  // Every window recovers; see DESIGN.md §4f.
  PHOEBE_RETURN_IF_ERROR(Catalog::SaveTmp(env_, options_.path, data));
  PHOEBE_RETURN_IF_ERROR(CrashPoint("before_catalog_rename"));
  PHOEBE_RETURN_IF_ERROR(Catalog::CommitTmp(env_, options_.path));
  // The rename is the commit point: a durable image exists from this very
  // instant, so deferral and the image boundary must move here — not at the
  // end of the attempt. If WAL truncation fails below, an eager free or an
  // in-place eviction could otherwise overwrite a page the just-published
  // catalog references.
  data_file_->PublishImage();
  PHOEBE_RETURN_IF_ERROR(CrashPoint("before_wal_truncate"));
  PHOEBE_RETURN_IF_ERROR(wal_->TruncateAll());
  PHOEBE_RETURN_IF_ERROR(CrashPoint("after_wal_truncate"));

  // The new catalog no longer references the pages relocated by this walk:
  // their ids may now be recycled.
  data_file_->PublishFrees();
  ckpt_stats_.last_watermark.store(cut.value(), std::memory_order_relaxed);
  return Status::OK();
}

Database::Stats Database::GetStats() const {
  Stats s;
  s.buffer_frames_total =
      pool_->frames_per_partition() * pool_->partitions();
  for (uint32_t p = 0; p < pool_->partitions(); ++p) {
    s.buffer_frames_free += pool_->FreeFrames(p);
  }
  s.buffer_evictions = pool_->stats().evictions.load();
  s.buffer_loads = pool_->stats().loads.load();
  s.live_undo_records = txn_mgr_->TotalLiveUndo();
  s.wal_bytes_flushed = wal_->TotalBytesFlushed();
  s.data_pages_on_disk = data_file_->num_pages();
  for (uint32_t i = 0; i < txn_mgr_->num_slots(); ++i) {
    if (txn_mgr_->slot(i).active_xid.load(std::memory_order_acquire) != 0) {
      s.active_transactions += 1;
    }
  }
  s.clock_now = clock_.Current();
  return s;
}

Status Database::Close() {
  if (closed_) return Status::OK();
  StopCheckpointer();
  DrainGc();
  Status st = CheckpointNow();
  closed_ = true;
  if (lock_handle_ >= 0) {
    env_->UnlockFile(lock_handle_);
    lock_handle_ = -1;
  }
  return st;
}

void Database::TEST_SimulateCrash() {
  StopCheckpointer();
  closed_ = true;
  if (lock_handle_ >= 0) {
    env_->UnlockFile(lock_handle_);
    lock_handle_ = -1;
  }
}

void Database::StartCheckpointer() {
  if (options_.checkpoint_wal_bytes == 0 && options_.checkpoint_interval_ms == 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(ckpt_thread_mu_);
    ckpt_stop_ = false;
  }
  checkpointer_ = std::thread([this] { CheckpointerLoop(); });
}

void Database::StopCheckpointer() {
  {
    std::lock_guard<std::mutex> lk(ckpt_thread_mu_);
    ckpt_stop_ = true;
  }
  ckpt_thread_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
}

void Database::CheckpointerLoop() {
  // Baseline = WAL bytes at the last successful checkpoint; the byte trigger
  // fires on the delta since then. Quiesce timeouts back off exponentially
  // so a long-running transaction is never hammered with admission stalls.
  uint64_t baseline_bytes = wal_->TotalBytesFlushed();
  double last_success = NowMs();
  double backoff_ms = 0.0;
  double next_eligible = 0.0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(ckpt_thread_mu_);
      ckpt_thread_cv_.wait_for(lk, std::chrono::milliseconds(10),
                               [&] { return ckpt_stop_; });
      if (ckpt_stop_) return;
    }
    double now = NowMs();
    if (now < next_eligible) continue;
    uint64_t appended = wal_->TotalBytesFlushed();
    bool bytes_due = options_.checkpoint_wal_bytes != 0 &&
                     appended - baseline_bytes >= options_.checkpoint_wal_bytes;
    bool time_due =
        options_.checkpoint_interval_ms != 0 &&
        now - last_success >=
            static_cast<double>(options_.checkpoint_interval_ms);
    if (!bytes_due && !time_due) continue;

    Status st = RequestCheckpoint();
    if (st.ok()) {
      baseline_bytes = wal_->TotalBytesFlushed();
      last_success = NowMs();
      backoff_ms = 0.0;
      next_eligible = 0.0;
    } else if (st.IsUnavailable()) {
      // Fail-stopped engine: nothing further can succeed.
      return;
    } else {
      backoff_ms = backoff_ms == 0.0 ? 10.0 : std::min(backoff_ms * 2, 2000.0);
      next_eligible = NowMs() + backoff_ms;
    }
  }
}

}  // namespace phoebe
