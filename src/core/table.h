#ifndef PHOEBE_CORE_TABLE_H_
#define PHOEBE_CORE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/lock_table.h"
#include "common/constants.h"
#include "common/function_ref.h"
#include "common/status.h"
#include "core/options.h"
#include "storage/btree.h"
#include "storage/frozen_store.h"
#include "storage/op_context.h"
#include "storage/schema.h"
#include "txn/transaction.h"
#include "txn/twin_table.h"
#include "txn/txn_manager.h"
#include "wal/wal_manager.h"

namespace phoebe {

/// Shared engine components handed to every Table (owned by Database).
struct EngineDeps {
  const DatabaseOptions* options = nullptr;
  Env* env = nullptr;
  std::string dir;
  BufferPool* pool = nullptr;
  BTreeRegistry* registry = nullptr;
  GlobalClock* clock = nullptr;
  TxnManager* txn_mgr = nullptr;
  WalManager* wal = nullptr;
  GlobalLockTable* lock_table = nullptr;  // baseline mode only
  /// Baseline: lock keys held per slot, released at transaction finish.
  std::vector<std::vector<uint64_t>>* held_locks = nullptr;
};

/// A secondary index: (encoded key [+ row_id suffix when non-unique]) ->
/// row_id pairs in an index B-Tree (Section 5.1).
struct IndexDef {
  std::string name;
  RelationId id = kInvalidRelationId;
  std::vector<uint32_t> key_columns;
  bool unique = true;
  std::unique_ptr<BTree> tree;
};

/// A relation: PAX table B-Tree (hot/cold) + frozen store + secondary
/// indexes + MVCC orchestration. All DML is transaction-aware: it creates
/// UNDO records, maintains twin tables, appends WAL, and honors the
/// isolation rules of Section 6.
///
/// Resumability contract (coroutine mode): any kBlocked status is returned
/// *before* this call applied its first non-idempotent effect, so the
/// calling coroutine may simply re-invoke the same call after yielding.
class Table {
 public:
  Table(EngineDeps* deps, std::string name, RelationId id, Schema schema);

  /// Creates the backing trees/stores (fresh table or recovery-from-empty).
  Status Create();
  /// Re-opens from a checkpoint image.
  Status OpenFromCheckpoint(PageId root, RowId next_row_id);

  const std::string& name() const { return name_; }
  RelationId id() const { return id_; }
  const Schema& schema() const { return schema_; }
  const TableLeafLayout& layout() const { return layout_; }
  BTree* tree() { return tree_.get(); }
  FrozenStore* frozen() { return frozen_.get(); }

  /// --- Index DDL -------------------------------------------------------------

  Status AddIndex(const std::string& name, RelationId id,
                  std::vector<uint32_t> key_columns, bool unique,
                  PageId checkpoint_root = kInvalidPageId);
  size_t num_indexes() const { return indexes_.size(); }
  IndexDef& index(size_t i) { return *indexes_[i]; }
  int FindIndex(const std::string& name) const;

  /// --- Transactional DML ------------------------------------------------------

  /// Inserts `row`. *rid_inout must be 0 on the first call; the allocated
  /// row id is written back (and reused by retries after kBlocked).
  Status Insert(OpContext* ctx, Transaction* txn, Slice row,
                RowId* rid_inout);

  /// Computes the column updates from the *current committed row* under the
  /// exclusive leaf latch (after the write-conflict check), making
  /// read-modify-write updates like `ytd = ytd + x` atomic. `compute` must
  /// be side-effect-free on failure paths (it may run multiple times on
  /// retries). FunctionRef: the callable is borrowed for the duration of the
  /// call, so passing a lambda inline never heap-allocates.
  using UpdateFn = FunctionRef<Status(
      RowView current, std::vector<std::pair<uint32_t, Value>>* sets)>;
  Status UpdateApply(OpContext* ctx, Transaction* txn, RowId rid,
                     UpdateFn compute);

  /// Updates columns of the visible version of `rid` in place with constant
  /// values (sugar over UpdateApply).
  Status Update(OpContext* ctx, Transaction* txn, RowId rid,
                const std::vector<std::pair<uint32_t, Value>>& sets);

  /// Marks `rid` deleted (physical purge happens at GC).
  Status Delete(OpContext* ctx, Transaction* txn, RowId rid);

  /// Reads the version of `rid` visible to `txn`. `*row` borrows the
  /// transaction's scratch arena (or the base row materialized into it),
  /// valid until the slot's next Begin resets the arena (DESIGN.md 4g);
  /// copy it (Slice::ToString) to keep it longer.
  ///
  /// Projection (DESIGN.md 4g): only the columns in `cols` are guaranteed.
  /// A version read from the page carries the others as null; one rebuilt
  /// from UNDO or read from the frozen store may carry some of them, so the
  /// caller reads only the columns it listed. A column at index >= 64 is
  /// always materialized. A projected row must never be handed to a write.
  Status GetRef(OpContext* ctx, Transaction* txn, RowId rid, Slice* row,
                ColumnSet cols = kAllColumns);

  /// Unique-index point lookup with visibility check: the key is encoded
  /// into the transaction arena and `*row` (if not null) borrows it like
  /// GetRef, projected to `cols`.
  Status IndexGetRef(OpContext* ctx, Transaction* txn, size_t index_no,
                     const std::vector<Value>& key_values, RowId* rid,
                     Slice* row, ColumnSet cols = kAllColumns);

  /// Ascending index range scan over [lo, hi) key prefixes; `cb` receives
  /// each *visible* row, returns false to stop. Pass empty hi_values to use
  /// the successor of lo as the upper bound (prefix scan). Row slices borrow
  /// the transaction arena and stay valid until the slot's next Begin (they
  /// are NOT invalidated between callback invocations, so callers may hold
  /// on to them for the rest of the transaction). Rows are projected to
  /// `cols` like GetRef.
  /// Each visible row reaches `cb` exactly once: a kBlocked status is only
  /// returned before the first row was delivered, and the rows after it are
  /// read synchronously.
  Status IndexScanRef(OpContext* ctx, Transaction* txn, size_t index_no,
                      const std::vector<Value>& lo_values,
                      const std::vector<Value>& hi_values,
                      FunctionRef<bool(RowId, Slice)> cb,
                      ColumnSet cols = kAllColumns);

  /// Full scan of all visible rows (hot/cold + frozen), row-id order within
  /// each tier (frozen first). Maintenance/verification use. Each row is
  /// valid only during its callback (tree rows borrow the transaction arena
  /// like GetRef; frozen rows a decoded block).
  Status ScanAllVisible(OpContext* ctx, Transaction* txn,
                        FunctionRef<bool(RowId, Slice)> cb);

  /// Columnar projection scan (the HTAP path PAX + frozen blocks enable,
  /// Section 5.2): streams one integer column's visible values without
  /// materializing rows — frozen blocks decode only that column's stream,
  /// hot/cold PAX leaves read the minipage directly. Tuples with pending
  /// version chains fall back to per-tuple visibility. Null values are
  /// skipped. Does not warm pages (count_accesses off).
  Status ScanColumnInt64(OpContext* ctx, Transaction* txn, uint32_t col,
                         const std::function<bool(RowId, int64_t)>& cb);
  Status ScanColumnDouble(OpContext* ctx, Transaction* txn, uint32_t col,
                          const std::function<bool(RowId, double)>& cb);

  /// --- Housekeeping (Section 5.2 temperature exchange) ------------------------

  /// Freezes up to `max_leaves` consecutive cold leaves starting at the
  /// frozen boundary into compressed blocks. Returns leaves frozen.
  Result<int> FreezePass(OpContext* ctx, int max_leaves);

  /// Warms frozen rows whose blocks exceeded the read threshold: re-inserts
  /// them as fresh hot rows under `txn` and tombstones the frozen copies.
  Status WarmPass(OpContext* ctx, Transaction* txn, size_t max_rows);

  /// --- Rollback & GC hooks (called by Database) -------------------------------

  /// Reverts one UNDO record of an aborting transaction.
  Status RollbackRecord(OpContext* ctx, Transaction* txn,
                        const UndoRecord* rec);

  /// Purge work when an UNDO record is reclaimed (deleted-tuple removal,
  /// stale index entries after key-changing updates).
  void OnUndoReclaimed(OpContext* ctx, const UndoRecord& rec);

  /// --- Recovery appliers (no UNDO/WAL; raw idempotent apply) ------------------

  Status ReplayInsert(OpContext* ctx, RowId rid, Slice row);
  Status ReplayUpdate(OpContext* ctx, RowId rid, Slice after_delta);
  Status ReplayDelete(OpContext* ctx, RowId rid);
  /// True iff `rid` is present and not tombstoned in the tree (replay-time
  /// liveness; used to reclaim stale unique-index mappings).
  bool ReplayRowLive(OpContext* ctx, RowId rid);

  /// --- Key encoding ------------------------------------------------------------

  /// The index-key format: an order-preserving encoding of the key columns
  /// (int32/int64: sign-flipped big-endian, 8 bytes; string: bytes + 0x00
  /// terminator; a null column encodes as 0 / the empty string). The value
  /// form encodes the first values.size() columns of `cols` (a key prefix,
  /// for range scans); the row form encodes all of them. The key lives in
  /// `arena` until it resets.
  static Result<Slice> EncodeKey(const Schema& schema,
                                 const std::vector<uint32_t>& cols,
                                 const std::vector<Value>& values,
                                 Arena* arena);
  static Result<Slice> EncodeKey(const Schema& schema,
                                 const std::vector<uint32_t>& cols,
                                 RowView row, Arena* arena);
  /// Turns `key[0..n)` into the smallest key strictly greater than every key
  /// it prefixes, in place; returns the new length (0 = unbounded).
  static size_t PrefixSuccessor(char* key, size_t n);

  RowId next_row_id() const {
    return next_row_id_.load(std::memory_order_relaxed);
  }
  void BumpNextRowId(RowId at_least);

  /// Checkpoint: flush the tree, return root page id.
  Result<PageId> Checkpoint(OpContext* ctx);

  /// Releases all storage (table tree, index trees, frozen store files).
  /// Quiescent callers only; the table is unusable afterwards.
  Status DropStorage(OpContext* ctx);

  /// Drops one secondary index by position.
  Status DropIndexAt(OpContext* ctx, size_t index_no);

 private:
  /// A row change as the write step installs it: the UNDO before-image
  /// delta (empty for an insert or delete), the row the slot holds
  /// afterwards (insert, update), and the WAL payload body (the row, the
  /// after-image delta, or empty for a delete).
  struct RowChange {
    Slice undo_delta;
    Slice new_row;
    Slice log_body;
  };
  /// Builds the change from the row's slot, under the exclusive latch and
  /// after the conflict check.
  using ChangeFn =
      FunctionRef<Status(TableLeaf& leaf, uint16_t slot, RowChange* change)>;

  /// The one write step of Insert, Update and Delete (DESIGN.md 4b.5):
  /// baseline row lock, exclusive leaf latch, twin-table entry, conflict
  /// wait (not for inserts), `prepare`, UNDO link, page change, page stamp
  /// and WAL record. Sets `*leaf_miss` and changes nothing when the tree has
  /// no leaf for `rid` (or, for updates and deletes, no row): each caller
  /// applies its own rule for that case.
  Status WriteRow(OpContext* ctx, Transaction* txn, RowId rid, UndoKind kind,
                  ChangeFn prepare, bool* leaf_miss);

  /// Baseline global lock table: takes `rid`'s row lock before the page is
  /// touched, with the deadlock-timeout policy of the XID wait.
  Status LockRowBaseline(OpContext* ctx, Transaction* txn, RowId rid);

  /// Links a `kind` UNDO record carrying `delta`, stamped with the writer's
  /// XID, at the head of `entry`'s version chain (Section 6.2).
  void LinkUndo(Transaction* txn, TwinTable* twin, TwinTable::Entry& entry,
                UndoKind kind, RowId rid, Slice delta);

  /// The index entries that differ between two images of a row: for every
  /// index whose key columns `delta` carries and whose key differs, calls
  /// `fn(IndexDef&, Slice old_key, Slice new_key) -> Status`.
  template <typename Fn>
  Status ForEachKeyChange(Slice delta, RowView old_row, RowView new_row,
                          Arena* arena, Fn&& fn);

  /// True iff `rid` lies at or below the frozen watermark.
  bool IsFrozen(RowId rid) const;

  /// Write-conflict wait with deadlock-timeout accounting. Returns OK when
  /// the synchronous caller should retry, kBlocked to make the coroutine
  /// yield, or kAborted when the wait exceeded the deadlock timeout.
  Status HandleWriteBlock(OpContext* ctx, Transaction* txn,
                          const Status& conflict);

  /// Secondary-index entry insert/remove with own-entry idempotence.
  Status IndexInsertEntry(OpContext* ctx, IndexDef& idx, Slice user_key,
                          RowId rid);
  Status IndexRemoveEntry(OpContext* ctx, IndexDef& idx, Slice user_key,
                          RowId rid);

  /// Out-of-place delete of a row living only in the frozen tier. The
  /// removed row is handed back in `*row_out` (if not null), borrowing the
  /// transaction arena.
  Status DeleteFrozen(OpContext* ctx, Transaction* txn, RowId rid,
                      Slice* row_out = nullptr);

  /// Warms a single frozen row into hot storage (frozen updates, WarmPass):
  /// DeleteFrozen, then Insert under a fresh row id, returned in `*new_rid`.
  Status WarmRow(OpContext* ctx, Transaction* txn, RowId frozen_rid,
                 RowId* new_rid);

  /// Resolves the arena for this operation: an explicit `ctx->arena`
  /// override if set, else the transaction slot's scratch arena. Never
  /// cached into `ctx` (an OpContext may outlive the engine instance). GC
  /// and replay run without a transaction; their contexts carry the arena.
  Arena* ScratchOf(OpContext* ctx, Transaction* txn);

  /// Encodes `row`'s key for every secondary index into `arena` and calls
  /// `fn(IndexDef&, Slice key) -> Status`, stopping at the first error.
  template <typename Fn>
  Status ForEachIndexKey(RowView row, Arena* arena, Fn&& fn);

  EngineDeps* deps_;
  std::string name_;
  RelationId id_;
  Schema schema_;
  TableLeafLayout layout_;
  std::unique_ptr<BTree> tree_;
  std::unique_ptr<FrozenStore> frozen_;
  std::vector<std::unique_ptr<IndexDef>> indexes_;
  std::atomic<RowId> next_row_id_{1};
};

}  // namespace phoebe

#endif  // PHOEBE_CORE_TABLE_H_
