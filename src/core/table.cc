#include "core/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "common/arena.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/profiler.h"
#include "txn/visibility.h"
#include "wal/record.h"

namespace phoebe {

Table::Table(EngineDeps* deps, std::string name, RelationId id, Schema schema)
    : deps_(deps),
      name_(std::move(name)),
      id_(id),
      schema_(std::move(schema)),
      layout_(TableLeafLayout::Compute(schema_)) {}

Status Table::Create() {
  auto tree = BTree::Create(deps_->pool, deps_->registry,
                            BTree::TreeKind::kTable, &schema_, &layout_);
  if (!tree.ok()) return tree.status();
  tree_ = std::move(tree.value());
  auto frozen = FrozenStore::Open(deps_->env, deps_->dir, name_, &schema_,
                                  deps_->options->frozen_cache_blocks);
  if (!frozen.ok()) return frozen.status();
  frozen_ = std::move(frozen.value());
  return Status::OK();
}

Status Table::OpenFromCheckpoint(PageId root, RowId next_row_id) {
  auto tree = BTree::OpenFromRoot(deps_->pool, deps_->registry,
                                  BTree::TreeKind::kTable, &schema_, &layout_,
                                  root);
  if (!tree.ok()) return tree.status();
  tree_ = std::move(tree.value());
  next_row_id_.store(next_row_id, std::memory_order_relaxed);
  auto frozen = FrozenStore::Open(deps_->env, deps_->dir, name_, &schema_,
                                  deps_->options->frozen_cache_blocks);
  if (!frozen.ok()) return frozen.status();
  frozen_ = std::move(frozen.value());
  return Status::OK();
}

Status Table::AddIndex(const std::string& name, RelationId id,
                       std::vector<uint32_t> key_columns, bool unique,
                       PageId checkpoint_root) {
  auto idx = std::make_unique<IndexDef>();
  idx->name = name;
  idx->id = id;
  idx->key_columns = std::move(key_columns);
  idx->unique = unique;
  Result<std::unique_ptr<BTree>> tree =
      checkpoint_root == kInvalidPageId
          ? BTree::Create(deps_->pool, deps_->registry,
                          BTree::TreeKind::kIndex, nullptr, nullptr)
          : BTree::OpenFromRoot(deps_->pool, deps_->registry,
                                BTree::TreeKind::kIndex, nullptr, nullptr,
                                checkpoint_root);
  if (!tree.ok()) return tree.status();
  idx->tree = std::move(tree.value());
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

int Table::FindIndex(const std::string& name) const {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

namespace {

/// EncodeKey value sources, indexed by key position k.
struct KeyValues {
  const Value* values;
  int64_t Int(size_t k) const { return values[k].i64; }
  Slice String(size_t k) const { return values[k].str_ref(); }
};

struct KeyOfRow {
  const Schema& schema;
  RowView row;
  const uint32_t* cols;
  int64_t Int(size_t k) const {
    const uint32_t c = cols[k];
    if (row.IsNull(c)) return 0;
    return schema.column(c).type == ColumnType::kInt32 ? row.GetInt32(c)
                                                       : row.GetInt64(c);
  }
  Slice String(size_t k) const {
    return row.IsNull(cols[k]) ? Slice() : row.GetString(cols[k]);
  }
};

/// The one writer of the index-key format (see Table::EncodeKey). The exact
/// size is computed first, so the arena keeps no slack.
template <typename Source>
Result<Slice> WriteKey(const Schema& schema, const uint32_t* cols, size_t n,
                       const Source& src, Arena* arena) {
  size_t need = 0;
  for (size_t k = 0; k < n; ++k) {
    switch (schema.column(cols[k]).type) {
      case ColumnType::kInt32:
      case ColumnType::kInt64: need += 8; break;
      case ColumnType::kString: need += src.String(k).size() + 1; break;
      case ColumnType::kDouble:
        return Status::NotSupported("double index keys");
    }
  }
  char* buf = arena->Allocate(need);
  char* p = buf;
  for (size_t k = 0; k < n; ++k) {
    if (schema.column(cols[k]).type == ColumnType::kString) {
      Slice s = src.String(k);
      if (!s.empty()) memcpy(p, s.data(), s.size());
      p += s.size();
      *p++ = '\0';
    } else {
      // Flip the sign bit so two's-complement order matches memcmp order.
      EncodeBigEndian64(p, static_cast<uint64_t>(src.Int(k)) ^ (1ull << 63));
      p += 8;
    }
  }
  return Slice(buf, need);
}

}  // namespace

Result<Slice> Table::EncodeKey(const Schema& schema,
                               const std::vector<uint32_t>& cols,
                               const std::vector<Value>& values,
                               Arena* arena) {
  if (values.size() > cols.size()) {
    return Status::InvalidArgument("too many key values");
  }
  return WriteKey(schema, cols.data(), values.size(), KeyValues{values.data()},
                  arena);
}

Result<Slice> Table::EncodeKey(const Schema& schema,
                               const std::vector<uint32_t>& cols, RowView row,
                               Arena* arena) {
  return WriteKey(schema, cols.data(), cols.size(),
                  KeyOfRow{schema, row, cols.data()}, arena);
}

size_t Table::PrefixSuccessor(char* key, size_t n) {
  while (n > 0) {
    uint8_t last = static_cast<uint8_t>(key[n - 1]);
    if (last != 0xFF) {
      key[n - 1] = static_cast<char>(last + 1);
      return n;
    }
    --n;
  }
  return 0;  // unbounded
}

Arena* Table::ScratchOf(OpContext* ctx, Transaction* txn) {
  // An explicitly set ctx->arena wins; otherwise resolve the transaction
  // slot's scratch arena fresh each call (never cached back into ctx: an
  // OpContext may outlive this database instance, e.g. across a test's
  // close/reopen cycle, and a cached pointer would dangle).
  if (ctx->arena != nullptr) return ctx->arena;
  assert(txn != nullptr);
  return &deps_->txn_mgr->slot(txn->slot_id()).scratch;
}

template <typename Fn>
Status Table::ForEachIndexKey(RowView row, Arena* arena, Fn&& fn) {
  for (auto& idx : indexes_) {
    Result<Slice> key = EncodeKey(schema_, idx->key_columns, row, arena);
    if (!key.ok()) return key.status();
    PHOEBE_RETURN_IF_ERROR(fn(*idx, key.value()));
  }
  return Status::OK();
}

void Table::BumpNextRowId(RowId at_least) {
  RowId cur = next_row_id_.load(std::memory_order_relaxed);
  while (at_least > cur && !next_row_id_.compare_exchange_weak(
                               cur, at_least, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Secondary index entries
// ---------------------------------------------------------------------------

namespace {
std::string IndexEntryKey(const IndexDef& idx, Slice user_key, RowId rid) {
  std::string key(user_key.data(), user_key.size());
  if (!idx.unique) {
    char buf[8];
    EncodeBigEndian64(buf, rid);
    key.append(buf, 8);
  }
  return key;
}
}  // namespace

Status Table::HandleWriteBlock(OpContext* ctx, Transaction* txn,
                               const Status& conflict) {
  Xid other = conflict.wait_xid();
  uint64_t now = NowNanos();
  if (txn->waiting_on != other) {
    txn->waiting_on = other;
    txn->wait_started_ns = now;
  } else if (now - txn->wait_started_ns >
             deps_->options->deadlock_timeout_ms * 1000000ull) {
    txn->waiting_on = 0;
    return Status::Aborted("lock wait timeout (possible deadlock)");
  }
  if (ctx->synchronous) {
    deps_->txn_mgr->WaitForXidFor(other, 2000);
    return Status::OK();  // caller retries its loop
  }
  return conflict;  // propagate kBlocked; the coroutine yields and retries
}

Status Table::IndexInsertEntry(OpContext* ctx, IndexDef& idx, Slice user_key,
                               RowId rid) {
  std::string key = IndexEntryKey(idx, user_key, rid);
  Status st = idx.tree->IndexInsert(ctx, key, rid);
  if (st.IsKeyExists()) {
    uint64_t existing = 0;
    Status ls = idx.tree->IndexLookup(ctx, key, &existing);
    if (ls.ok() && existing == rid) return Status::OK();  // resume/idempotent
    return Status::Aborted("unique index violation: " + idx.name);
  }
  return st;
}

Status Table::IndexRemoveEntry(OpContext* ctx, IndexDef& idx, Slice user_key,
                               RowId rid) {
  std::string key = IndexEntryKey(idx, user_key, rid);
  if (idx.unique) {
    // Only remove if the entry still maps to this row.
    uint64_t existing = 0;
    Status ls = idx.tree->IndexLookup(ctx, key, &existing);
    if (ls.IsNotFound()) return Status::OK();
    if (!ls.ok()) return ls;
    if (existing != rid) return Status::OK();
  }
  Status st = idx.tree->IndexRemove(ctx, key);
  if (st.IsNotFound()) return Status::OK();  // idempotent
  return st;
}

// ---------------------------------------------------------------------------
// The write step
// ---------------------------------------------------------------------------

Status Table::LockRowBaseline(OpContext* ctx, Transaction* txn, RowId rid) {
  const uint64_t lock_key = GlobalLockTable::Key(id_, rid);
  for (;;) {
    Status st = deps_->lock_table->AcquireExclusive(lock_key, txn->xid(),
                                                    /*blocking=*/false);
    if (st.ok()) {
      (*deps_->held_locks)[txn->slot_id()].push_back(lock_key);
      txn->waiting_on = 0;
      return Status::OK();
    }
    // OK: retry synchronously; else kBlocked (yield) or kAborted (timeout).
    PHOEBE_RETURN_IF_ERROR(HandleWriteBlock(ctx, txn, st));
  }
}

void Table::LinkUndo(Transaction* txn, TwinTable* twin,
                     TwinTable::Entry& entry, UndoKind kind, RowId rid,
                     Slice delta) {
  UndoRecord* prev = entry.head.load(std::memory_order_acquire);
  uint64_t prev_ets = 0;
  if (prev != nullptr && prev->IsLive(nullptr) && prev->rid == rid) {
    prev_ets = prev->ets.load(std::memory_order_acquire);
  }
  // An insert fills a slot that is not live, and such a slot has no live
  // head with its row id (row ids are never reused).
  assert(kind != UndoKind::kInsert || prev_ets == 0);
  UndoRecord* undo = deps_->txn_mgr->slot(txn->slot_id())
                         .arena.Alloc(kind, id_, rid, delta);
  undo->sts.store(prev_ets, std::memory_order_relaxed);
  undo->ets.store(txn->xid(), std::memory_order_relaxed);
  undo->next.store(prev, std::memory_order_relaxed);
  txn->PushUndo(undo);
  twin->NoteWriter(txn->xid());
  entry.head.store(undo, std::memory_order_release);
}

Status Table::WriteRow(OpContext* ctx, Transaction* txn, RowId rid,
                       UndoKind kind, ChangeFn prepare, bool* leaf_miss) {
  // An insert fills a fresh row id, which no other writer can hold; updates
  // and deletes take the row's lock first.
  const bool locks = kind != UndoKind::kInsert;
  if (locks && deps_->options->baseline_global_lock_table) {
    PHOEBE_RETURN_IF_ERROR(LockRowBaseline(ctx, txn, rid));
  }
  *leaf_miss = false;
  for (;;) {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(
        tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kExclusive, &g));
    TableLeaf leaf(g.page(), &schema_, &layout_);
    if (!leaf.InRange(rid) || (locks && !leaf.IsLive(leaf.SlotOf(rid)))) {
      *leaf_miss = true;
      return Status::OK();
    }
    const uint16_t slot = leaf.SlotOf(rid);
    BufferFrame* frame = g.frame();
    bool created = TwinTable::Of(frame) == nullptr;
    TwinTable* twin = TwinTable::GetOrCreate(frame, leaf.capacity());
    if (created) deps_->txn_mgr->RegisterTwin(id_, frame);
    auto& entry = twin->entry(slot);

    if (!locks && leaf.IsLive(slot)) {
      // Resume idempotence: already inserted by this transaction?
      UndoRecord* h = entry.head.load(std::memory_order_acquire);
      if (h != nullptr && h->IsLive(nullptr) && h->rid == rid &&
          h->kind == UndoKind::kInsert &&
          h->ets.load(std::memory_order_acquire) == txn->xid()) {
        return Status::OK();
      }
      return Status::Corruption("insert: row id already occupied");
    }
    if (locks) {
      ComponentScope prof(Component::kLocking);
      Status conflict = CheckWriteConflict(txn->xid(), txn->snapshot(),
                                           txn->isolation(), &entry, id_, rid);
      if (conflict.IsBlocked()) {
        g.Release();
        // OK: retry synchronously; else kBlocked (yield) or kAborted.
        PHOEBE_RETURN_IF_ERROR(HandleWriteBlock(ctx, txn, conflict));
        continue;
      }
      if (!conflict.ok()) return conflict;
      txn->waiting_on = 0;
      // Deleted by a committed transaction: nothing to change.
      if (leaf.IsDeleted(slot)) return Status::NotFound();
    }

    // No kBlocked from here on: the UNDO link is the first effect that a
    // retry could not repeat (DESIGN.md 4b.5).
    ComponentScope prof(Component::kMvcc);
    RowChange change;
    PHOEBE_RETURN_IF_ERROR(prepare(leaf, slot, &change));
    LinkUndo(txn, twin, entry, kind, rid, change.undo_delta);
    WalRecordType type{};
    switch (kind) {
      case UndoKind::kInsert:
        type = WalRecordType::kInsert;
        PHOEBE_RETURN_IF_ERROR(leaf.InsertRow(
            slot, RowView(&schema_, change.new_row.data())));
        break;
      case UndoKind::kUpdate:
        type = WalRecordType::kUpdate;
        PHOEBE_RETURN_IF_ERROR(leaf.UpdateRow(
            slot, RowView(&schema_, change.new_row.data())));
        break;
      case UndoKind::kDelete:
        type = WalRecordType::kDelete;
        PHOEBE_RETURN_IF_ERROR(leaf.SetDeleted(slot, true));
        break;
    }
    // Stamp the page and log the change under the page's GSN (Section 8).
    frame->dirty.store(true, std::memory_order_release);
    uint64_t gsn = deps_->wal->OnPageWrite(txn, frame);
    deps_->wal->LogData(txn, type, gsn,
                        WalRecordCodec::DataPayloadTo(id_, rid, change.log_body,
                                                      ScratchOf(ctx, txn)));
    return Status::OK();
  }
}

template <typename Fn>
Status Table::ForEachKeyChange(Slice delta, RowView old_row, RowView new_row,
                               Arena* arena, Fn&& fn) {
  for (auto& idx : indexes_) {
    Result<bool> touched =
        DeltaCodec::TouchesAny(schema_, delta, idx->key_columns);
    if (!touched.ok()) return touched.status();
    if (!touched.value()) continue;
    Result<Slice> old_key =
        EncodeKey(schema_, idx->key_columns, old_row, arena);
    if (!old_key.ok()) return old_key.status();
    Result<Slice> new_key =
        EncodeKey(schema_, idx->key_columns, new_row, arena);
    if (!new_key.ok()) return new_key.status();
    if (old_key.value() == new_key.value()) continue;
    PHOEBE_RETURN_IF_ERROR(fn(*idx, old_key.value(), new_key.value()));
  }
  return Status::OK();
}

bool Table::IsFrozen(RowId rid) const {
  return frozen_ != nullptr && rid <= frozen_->max_frozen_row_id();
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status Table::Insert(OpContext* ctx, Transaction* txn, Slice row,
                     RowId* rid_inout) {
  if (*rid_inout == 0) {
    *rid_inout = next_row_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const RowId rid = *rid_inout;
  for (bool leaf_miss = true; leaf_miss;) {
    PHOEBE_RETURN_IF_ERROR(WriteRow(
        ctx, txn, rid, UndoKind::kInsert,
        [row](TableLeaf&, uint16_t, RowChange* change) {
          change->new_row = row;
          change->log_body = row;
          return Status::OK();
        },
        &leaf_miss));
    // Past the tail leaf: append the leaf that covers `rid`, then retry.
    if (leaf_miss) PHOEBE_RETURN_IF_ERROR(tree_->AppendTableLeaf(ctx, rid));
  }

  // Index maintenance: synchronous sub-context (no yields after the apply).
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  return ForEachIndexKey(RowView(&schema_, row.data()), ScratchOf(ctx, txn),
                         [&](IndexDef& idx, Slice key) {
                           return IndexInsertEntry(&sync, idx, key, rid);
                         });
}

// ---------------------------------------------------------------------------
// Get
// ---------------------------------------------------------------------------

Status Table::GetRef(OpContext* ctx, Transaction* txn, RowId rid,
                     Slice* row, ColumnSet cols) {
  // Each row lives in one tier (DESIGN.md 4b.8). Tree first, frozen store
  // second: a freeze writes the block before it detaches the leaf, so a row
  // frozen after the tree miss below is already in the store.
  Arena* arena = ScratchOf(ctx, txn);
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(tree_->FixLeafShared(ctx, BTree::TableKey(rid),
                                              &txn->leaf_cache, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  if (!leaf.InRange(rid) || !leaf.IsLive(slot = leaf.SlotOf(rid))) {
    g.Release();
    if (!IsFrozen(rid)) return Status::NotFound();
    std::string tmp;
    PHOEBE_RETURN_IF_ERROR(frozen_->ReadRow(rid, &tmp));
    *row = arena->Copy(tmp);
    return Status::OK();
  }
  // Materialize the base row into the arena so it survives releasing the
  // page latch (the visible version may borrow it directly).
  Result<Slice> base = leaf.ReadRowTo(slot, arena, cols);
  if (!base.ok()) return base.status();
  bool base_deleted = leaf.IsDeleted(slot);
  TwinTable* twin = TwinTable::Of(g.frame());
  TwinTable::Entry* entry = twin != nullptr ? &twin->entry(slot) : nullptr;
  deps_->wal->OnPageRead(txn, g.frame());

  VisibleVersion vv;
  PHOEBE_RETURN_IF_ERROR(RetrieveVisibleVersion(
      schema_, txn->xid(), txn->snapshot(), base.value(), base_deleted, entry,
      id_, rid, arena, *deps_->txn_mgr, &vv));
  g.Release();
  txn->max_observed_cts = std::max(txn->max_observed_cts, vv.cts);
  if (!vv.exists) return Status::NotFound();
  *row = vv.row;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Update
// ---------------------------------------------------------------------------

Status Table::Update(OpContext* ctx, Transaction* txn, RowId rid,
                     const std::vector<std::pair<uint32_t, Value>>& sets) {
  return UpdateApply(
      ctx, txn, rid,
      [&sets](RowView, std::vector<std::pair<uint32_t, Value>>* out) {
        *out = sets;
        return Status::OK();
      });
}

Status Table::UpdateApply(OpContext* ctx, Transaction* txn, RowId rid,
                          UpdateFn compute) {
  // Allocation-free hot section: the old row, patched row, deltas, and WAL
  // payload all live in the transaction arena (DESIGN.md 4g). The old row is
  // materialized off the page so index maintenance can read it after the
  // latch drops.
  Arena* arena = ScratchOf(ctx, txn);
  RowView old_view;
  RowView new_view;
  Slice before_delta;
  bool leaf_miss = false;
  PHOEBE_RETURN_IF_ERROR(WriteRow(
      ctx, txn, rid, UndoKind::kUpdate,
      [&](TableLeaf& leaf, uint16_t slot, RowChange* change) -> Status {
        Result<Slice> old_row = leaf.ReadRowTo(slot, arena);
        if (!old_row.ok()) return old_row.status();
        old_view = RowView(&schema_, old_row.value().data());
        // Evaluate the update against the current committed row (atomic
        // RMW), then patch the encoded row directly.
        std::vector<std::pair<uint32_t, Value>> sets;
        PHOEBE_RETURN_IF_ERROR(compute(old_view, &sets));
        Result<Slice> new_row =
            PatchRowTo(schema_, old_view, sets.data(), sets.size(), arena);
        if (!new_row.ok()) return new_row.status();
        new_view = RowView(&schema_, new_row.value().data());
        const size_t ncols = sets.size();
        uint32_t* cols = reinterpret_cast<uint32_t*>(
            arena->Allocate(ncols * sizeof(uint32_t)));
        for (size_t i = 0; i < ncols; ++i) cols[i] = sets[i].first;
        // UNDO: before-image delta of the touched columns (Section 6.2);
        // WAL: their after-image.
        before_delta =
            DeltaCodec::MakeDeltaTo(schema_, old_view, cols, ncols, arena);
        change->undo_delta = before_delta;
        change->new_row = new_row.value();
        change->log_body =
            DeltaCodec::MakeDeltaTo(schema_, new_view, cols, ncols, arena);
        return Status::OK();
      },
      &leaf_miss));
  if (leaf_miss) {
    if (!IsFrozen(rid)) return Status::NotFound();
    // Frozen update: warm the row into hot storage, then update the fresh
    // copy (Section 5.2 case 3). Runs synchronously.
    OpContext sync;
    sync.InitSyncViewOf(*ctx);
    RowId new_rid = 0;
    PHOEBE_RETURN_IF_ERROR(WarmRow(&sync, txn, rid, &new_rid));
    return UpdateApply(&sync, txn, new_rid, compute);
  }

  // Key-changing updates: add the new index entries (synchronous); GC drops
  // the old ones once no snapshot can reach them (OnUndoReclaimed).
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  return ForEachKeyChange(before_delta, old_view, new_view, arena,
                          [&](IndexDef& idx, Slice, Slice new_key) {
                            return IndexInsertEntry(&sync, idx, new_key, rid);
                          });
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

Status Table::Delete(OpContext* ctx, Transaction* txn, RowId rid) {
  bool leaf_miss = false;
  PHOEBE_RETURN_IF_ERROR(WriteRow(
      ctx, txn, rid, UndoKind::kDelete,
      [](TableLeaf&, uint16_t, RowChange*) { return Status::OK(); },
      &leaf_miss));
  if (!leaf_miss) return Status::OK();
  return IsFrozen(rid) ? DeleteFrozen(ctx, txn, rid) : Status::NotFound();
}

/// Out-of-place delete of a row living only in the frozen tier: tombstone +
/// WAL (so recovery re-marks it) + immediate index removal (Section 5.2).
Status Table::DeleteFrozen(OpContext* ctx, Transaction* txn, RowId rid,
                           Slice* row_out) {
  Arena* arena = ScratchOf(ctx, txn);
  std::string tmp;
  PHOEBE_RETURN_IF_ERROR(frozen_->ReadRow(rid, &tmp));
  Slice row = arena->Copy(tmp);
  frozen_->MarkDeleted(rid);
  deps_->wal->LogOffPageData(
      txn, WalRecordType::kDelete,
      WalRecordCodec::DataPayloadTo(id_, rid, Slice(), arena));
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  PHOEBE_RETURN_IF_ERROR(ForEachIndexKey(
      RowView(&schema_, row.data()), arena, [&](IndexDef& idx, Slice key) {
        return IndexRemoveEntry(&sync, idx, key, rid);
      }));
  if (row_out != nullptr) *row_out = row;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Index access
// ---------------------------------------------------------------------------

Status Table::IndexGetRef(OpContext* ctx, Transaction* txn, size_t index_no,
                          const std::vector<Value>& key_values, RowId* rid,
                          Slice* row, ColumnSet cols) {
  IndexDef& idx = *indexes_[index_no];
  if (key_values.size() != idx.key_columns.size()) {
    return Status::InvalidArgument("key value count mismatch");
  }
  Result<Slice> key =
      EncodeKey(schema_, idx.key_columns, key_values, ScratchOf(ctx, txn));
  if (!key.ok()) return key.status();
  uint64_t value = 0;
  PHOEBE_RETURN_IF_ERROR(
      idx.tree->IndexLookup(ctx, key.value(), &value, &txn->leaf_cache));
  if (rid != nullptr) *rid = value;
  if (row != nullptr) {
    return GetRef(ctx, txn, value, row, cols);
  }
  return Status::OK();
}

Status Table::IndexScanRef(OpContext* ctx, Transaction* txn, size_t index_no,
                           const std::vector<Value>& lo_values,
                           const std::vector<Value>& hi_values,
                           FunctionRef<bool(RowId, Slice)> cb,
                           ColumnSet cols) {
  IndexDef& idx = *indexes_[index_no];
  Arena* arena = ScratchOf(ctx, txn);
  Result<Slice> lo = EncodeKey(schema_, idx.key_columns, lo_values, arena);
  if (!lo.ok()) return lo.status();
  Slice hi;
  if (hi_values.empty()) {
    const size_t n = lo.value().size();
    char* key = arena->Allocate(n);
    memcpy(key, lo.value().data(), n);
    hi = Slice(key, PrefixSuccessor(key, n));
  } else {
    Result<Slice> h = EncodeKey(schema_, idx.key_columns, hi_values, arena);
    if (!h.ok()) return h.status();
    hi = h.value();
  }

  // The row ids go to the arena, in a buffer that doubles when full (the
  // arena keeps at most twice the ids).
  RowId* rids = nullptr;
  size_t n = 0;
  size_t cap = 0;
  PHOEBE_RETURN_IF_ERROR(idx.tree->IndexScan(
      ctx, lo.value(), hi, [&](Slice, uint64_t v) {
        if (n == cap) {
          cap = cap == 0 ? 64 : 2 * cap;
          auto* grown =
              reinterpret_cast<RowId*>(arena->Allocate(cap * sizeof(RowId)));
          if (n > 0) memcpy(grown, rids, n * sizeof(RowId));
          rids = grown;
        }
        rids[n++] = v;
        return true;
      }));
  // Once a row has reached `cb`, a kBlocked status would make the caller
  // re-run the scan and deliver that row again, so the rest are read on a
  // synchronous view of `ctx`, which waits instead of yielding.
  std::optional<OpContext> sync;
  OpContext* read_ctx = ctx;
  for (size_t i = 0; i < n; ++i) {
    Slice row;
    Status st = GetRef(read_ctx, txn, rids[i], &row, cols);
    if (st.IsNotFound()) continue;  // not visible to this snapshot
    PHOEBE_RETURN_IF_ERROR(st);
    if (!cb(rids[i], row)) break;
    if (!sync.has_value()) {
      sync.emplace();
      sync->InitSyncViewOf(*ctx);
      read_ctx = &*sync;
    }
  }
  return Status::OK();
}

Status Table::ScanAllVisible(OpContext* ctx, Transaction* txn,
                             FunctionRef<bool(RowId, Slice)> cb) {
  // Walk hot/cold leaves collecting row ids, then read each with
  // visibility. Collect first to avoid callback re-entry under latches.
  std::vector<RowId> rids;
  OpContext scan_ctx;
  scan_ctx.InitSyncViewOf(*ctx);
  scan_ctx.count_accesses = false;
  PHOEBE_RETURN_IF_ERROR(tree_->ForEachTableLeaf(
      &scan_ctx, [&](TableLeaf& leaf, BufferFrame*) {
        for (uint16_t s = 0; s < leaf.capacity(); ++s) {
          if (leaf.IsLive(s)) rids.push_back(leaf.first_row_id() + s);
        }
        return true;
      }));
  bool stop = false;
  if (frozen_ != nullptr) {
    PHOEBE_RETURN_IF_ERROR(
        frozen_->Scan([&](RowId rid, const std::string& row) {
          stop = !cb(rid, row);
          return !stop;
        }));
    if (stop) return Status::OK();
  }
  for (RowId rid : rids) {
    Slice row;
    Status st = GetRef(&scan_ctx, txn, rid, &row);
    if (st.IsNotFound()) continue;
    PHOEBE_RETURN_IF_ERROR(st);
    if (!cb(rid, row)) break;
  }
  return Status::OK();
}

namespace {

/// Shared columnar-scan driver over the frozen + hot tiers.
template <typename T>
Status ScanColumnGeneric(Table* table, BTree* tree, FrozenStore* frozen,
                         const Schema& schema, OpContext* ctx,
                         Transaction* txn, uint32_t col,
                         const std::function<bool(RowId, T)>& cb) {
  bool stop = false;
  // Frozen tier: per-block column projection (no row materialization).
  if (frozen != nullptr) {
    std::function<bool(RowId, T)> wrapped = [&](RowId rid, T v) {
      stop = !cb(rid, v);
      return !stop;
    };
    if constexpr (std::is_same_v<T, int64_t>) {
      PHOEBE_RETURN_IF_ERROR(frozen->ScanColumnInt64(col, wrapped));
    } else {
      PHOEBE_RETURN_IF_ERROR(frozen->ScanColumnDouble(col, wrapped));
    }
    if (stop) return Status::OK();
  }

  // Hot/cold tier: direct PAX minipage reads; per-tuple visibility only for
  // slots with pending version chains (Algorithm 1 fallback).
  OpContext scan_ctx;
  scan_ctx.InitSyncViewOf(*ctx);
  scan_ctx.count_accesses = false;
  std::vector<RowId> slow;
  Status scan_st = tree->ForEachTableLeaf(
      &scan_ctx, [&](TableLeaf& leaf, BufferFrame* frame) {
        TwinTable* twin = TwinTable::Of(frame);
        for (uint16_t s = 0; s < leaf.capacity(); ++s) {
          if (!leaf.IsLive(s)) continue;
          RowId rid = leaf.first_row_id() + s;
          bool has_chain = false;
          if (twin != nullptr) {
            UndoRecord* h =
                twin->entry(s).head.load(std::memory_order_acquire);
            has_chain = h != nullptr && h->IsLive(nullptr);
          }
          if (has_chain) {
            slow.push_back(rid);  // resolve via Algorithm 1 afterwards
            continue;
          }
          if (leaf.IsDeleted(s) || leaf.IsNullCol(s, col)) continue;
          T v;
          if constexpr (std::is_same_v<T, int64_t>) {
            v = leaf.ReadInt64Col(s, col);
          } else {
            v = leaf.ReadDoubleCol(s, col);
          }
          if (!cb(rid, v)) {
            stop = true;
            return false;
          }
        }
        return true;
      });
  PHOEBE_RETURN_IF_ERROR(scan_st);
  if (stop) return Status::OK();

  for (RowId rid : slow) {
    Slice row;
    Status st = table->GetRef(&scan_ctx, txn, rid, &row, ColumnBit(col));
    if (st.IsNotFound()) continue;
    PHOEBE_RETURN_IF_ERROR(st);
    RowView view(&schema, row.data());
    if (view.IsNull(col)) continue;
    T v;
    if constexpr (std::is_same_v<T, int64_t>) {
      v = schema.column(col).type == ColumnType::kInt32
              ? view.GetInt32(col)
              : view.GetInt64(col);
    } else {
      v = view.GetDouble(col);
    }
    if (!cb(rid, v)) break;
  }
  return Status::OK();
}

}  // namespace

Status Table::ScanColumnInt64(
    OpContext* ctx, Transaction* txn, uint32_t col,
    const std::function<bool(RowId, int64_t)>& cb) {
  if (col >= schema_.num_columns()) {
    return Status::InvalidArgument("no such column");
  }
  ColumnType type = schema_.column(col).type;
  if (type != ColumnType::kInt32 && type != ColumnType::kInt64) {
    return Status::InvalidArgument("not an integer column");
  }
  return ScanColumnGeneric<int64_t>(this, tree_.get(), frozen_.get(), schema_,
                                    ctx, txn, col, cb);
}

Status Table::ScanColumnDouble(
    OpContext* ctx, Transaction* txn, uint32_t col,
    const std::function<bool(RowId, double)>& cb) {
  if (col >= schema_.num_columns() ||
      schema_.column(col).type != ColumnType::kDouble) {
    return Status::InvalidArgument("not a double column");
  }
  return ScanColumnGeneric<double>(this, tree_.get(), frozen_.get(), schema_,
                                   ctx, txn, col, cb);
}

// ---------------------------------------------------------------------------
// Rollback & GC
// ---------------------------------------------------------------------------

Status Table::RollbackRecord(OpContext* ctx, Transaction* txn,
                             const UndoRecord* rec) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(tree_->FixLeaf(&sync, BTree::TableKey(rec->rid),
                                        LatchMode::kExclusive, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  if (!leaf.InRange(rec->rid)) {
    return Status::Corruption("rollback: leaf missing");
  }
  uint16_t slot = leaf.SlotOf(rec->rid);
  TwinTable* twin = TwinTable::Of(g.frame());
  if (twin == nullptr) return Status::Corruption("rollback: twin missing");
  auto& entry = twin->entry(slot);

  Arena* arena = ScratchOf(ctx, txn);
  Slice inserted_row;
  switch (rec->kind) {
    case UndoKind::kInsert: {
      Result<Slice> row = leaf.ReadRowTo(slot, arena);
      if (!row.ok()) return row.status();
      inserted_row = row.value();
      PHOEBE_RETURN_IF_ERROR(leaf.EraseRow(slot));
      break;
    }
    case UndoKind::kUpdate: {
      Result<Slice> cur = leaf.ReadRowTo(slot, arena);
      if (!cur.ok()) return cur.status();
      Result<Slice> before =
          DeltaCodec::ApplyDeltaTo(schema_, cur.value(), rec->delta(), arena);
      if (!before.ok()) return before.status();
      PHOEBE_RETURN_IF_ERROR(
          leaf.UpdateRow(slot, RowView(&schema_, before.value().data())));
      break;
    }
    case UndoKind::kDelete: {
      PHOEBE_RETURN_IF_ERROR(leaf.SetDeleted(slot, false));
      break;
    }
  }
  // Unlink: an active transaction's record is always the chain head.
  entry.head.store(rec->next.load(std::memory_order_acquire),
                   std::memory_order_release);
  g.frame()->dirty.store(true, std::memory_order_release);
  uint64_t gsn = deps_->wal->OnPageWrite(txn, g.frame());
  (void)gsn;
  g.Release();

  if (rec->kind == UndoKind::kInsert) {
    // Remove the index entries added by the aborted insert.
    return ForEachIndexKey(RowView(&schema_, inserted_row.data()), arena,
                           [&](IndexDef& idx, Slice key) {
                             return IndexRemoveEntry(&sync, idx, key,
                                                     rec->rid);
                           });
  }
  return Status::OK();
}

void Table::OnUndoReclaimed(OpContext* ctx, const UndoRecord& rec) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  sync.count_accesses = false;
  Arena* arena = ScratchOf(ctx, nullptr);
  if (rec.kind == UndoKind::kDelete) {
    // Physically purge the tuple and its index entries (Section 7.3).
    LeafGuard g;
    Status st = tree_->FixLeaf(&sync, BTree::TableKey(rec.rid),
                               LatchMode::kExclusive, &g);
    if (!st.ok()) return;
    TableLeaf leaf(g.page(), &schema_, &layout_);
    if (!leaf.InRange(rec.rid)) return;
    uint16_t slot = leaf.SlotOf(rec.rid);
    if (!leaf.IsLive(slot) || !leaf.IsDeleted(slot)) return;
    Result<Slice> row = leaf.ReadRowTo(slot, arena);
    if (!row.ok()) return;
    if (!leaf.EraseRow(slot).ok()) return;
    g.frame()->dirty.store(true, std::memory_order_release);
    g.Release();
    (void)ForEachIndexKey(RowView(&schema_, row.value().data()), arena,
                          [&](IndexDef& idx, Slice key) {
                            (void)IndexRemoveEntry(&sync, idx, key, rec.rid);
                            return Status::OK();
                          });
  } else if (rec.kind == UndoKind::kUpdate) {
    // Stale index entries after key-changing updates: the before values of
    // key columns live in the delta. Most updates change no key column, and
    // those need no row read.
    bool touches_key = false;
    for (auto& idx : indexes_) {
      Result<bool> t =
          DeltaCodec::TouchesAny(schema_, rec.delta(), idx->key_columns);
      touches_key |= t.ok() && t.value();
    }
    if (!touches_key) return;
    // Rebuild the before image from the current row + delta and drop the
    // entries only it has.
    Slice cur;
    {
      LeafGuard g;
      Status st = tree_->FixLeaf(&sync, BTree::TableKey(rec.rid),
                                 LatchMode::kShared, &g);
      if (!st.ok()) return;
      TableLeaf leaf(g.page(), &schema_, &layout_);
      uint16_t slot;
      if (!leaf.InRange(rec.rid) || !leaf.IsLive(slot = leaf.SlotOf(rec.rid)))
        return;
      Result<Slice> row = leaf.ReadRowTo(slot, arena);
      if (!row.ok()) return;
      cur = row.value();
    }
    Result<Slice> before =
        DeltaCodec::ApplyDeltaTo(schema_, cur, rec.delta(), arena);
    if (!before.ok()) return;
    (void)ForEachKeyChange(rec.delta(),
                           RowView(&schema_, before.value().data()),
                           RowView(&schema_, cur.data()), arena,
                           [&](IndexDef& idx, Slice old_key, Slice) {
                             (void)IndexRemoveEntry(&sync, idx, old_key,
                                                    rec.rid);
                             return Status::OK();
                           });
  }
}

// ---------------------------------------------------------------------------
// Temperature exchange
// ---------------------------------------------------------------------------

Result<int> Table::FreezePass(OpContext* ctx, int max_leaves) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  sync.count_accesses = false;
  int frozen_count = 0;
  const uint32_t epoch = deps_->pool->current_epoch();
  const auto& opts = *deps_->options;
  Arena scratch;

  while (frozen_count < max_leaves) {
    RowId start = frozen_->max_frozen_row_id() + 1;
    // The eligibility check, the row copy and the block write all run under
    // the latches DetachTableLeaf holds, so no writer can touch the leaf
    // between its frozen copy and its removal from the tree.
    Status st = tree_->DetachTableLeaf(
        &sync, start, [&](TableLeaf& leaf, BufferFrame* frame) {
          RowId leaf_end = leaf.first_row_id() + leaf.capacity();
          bool is_tail =
              leaf_end > next_row_id_.load(std::memory_order_relaxed);
          if (is_tail ||
              frame->access_count.load(std::memory_order_relaxed) >
                  opts.freeze_access_threshold ||
              frame->last_access_epoch.load(std::memory_order_relaxed) +
                      opts.freeze_epoch_age >
                  epoch) {
            return Status::NotFound("leaf not freezable");
          }
          std::vector<RowId> rids;
          std::vector<std::string> rows;
          for (uint16_t s = 0; s < leaf.capacity(); ++s) {
            if (!leaf.IsLive(s) || leaf.IsDeleted(s)) continue;
            Result<Slice> row = leaf.ReadRowTo(s, &scratch);
            if (!row.ok()) return row.status();
            rids.push_back(leaf.first_row_id() + s);
            rows.push_back(row.value().ToString());
          }
          scratch.Reset();
          return frozen_->FreezeBlock(rids, rows, leaf_end - 1);
        });
    // Not anchored at `start`, the root leaf, a twin table, or still warm.
    if (st.IsNotFound() || st.IsAborted()) break;
    if (!st.ok()) return Result<int>(st);
    ++frozen_count;
  }
  return Result<int>(frozen_count);
}

Status Table::WarmRow(OpContext* ctx, Transaction* txn, RowId frozen_rid,
                      RowId* new_rid) {
  Slice row;
  PHOEBE_RETURN_IF_ERROR(DeleteFrozen(ctx, txn, frozen_rid, &row));
  *new_rid = 0;
  return Insert(ctx, txn, row, new_rid);
}

Status Table::WarmPass(OpContext* ctx, Transaction* txn, size_t max_rows) {
  OpContext sync;
  sync.InitSyncViewOf(*ctx);
  std::vector<RowId> hot =
      frozen_->HotFrozenRows(deps_->options->warm_read_threshold, max_rows);
  for (RowId rid : hot) {
    RowId new_rid = 0;
    Status st = WarmRow(&sync, txn, rid, &new_rid);
    if (st.IsNotFound()) continue;
    PHOEBE_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery appliers
// ---------------------------------------------------------------------------

Status Table::ReplayInsert(OpContext* ctx, RowId rid, Slice row) {
  BumpNextRowId(rid + 1);
  for (;;) {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(tree_->FixLeaf(ctx, BTree::TableKey(rid),
                                          LatchMode::kExclusive, &g));
    TableLeaf leaf(g.page(), &schema_, &layout_);
    if (!leaf.InRange(rid)) {
      g.Release();
      PHOEBE_RETURN_IF_ERROR(tree_->AppendTableLeaf(ctx, rid));
      continue;
    }
    uint16_t slot = leaf.SlotOf(rid);
    if (!leaf.IsLive(slot)) {
      PHOEBE_RETURN_IF_ERROR(
          leaf.InsertRow(slot, RowView(&schema_, row.data())));
      g.frame()->dirty.store(true, std::memory_order_release);
    }
    break;
  }
  Arena* arena = ScratchOf(ctx, nullptr);
  RowView view(&schema_, row.data());
  for (auto& idx : indexes_) {
    Result<Slice> key = EncodeKey(schema_, idx->key_columns, view, arena);
    if (!key.ok()) return key.status();
    std::string entry_key = IndexEntryKey(*idx, key.value(), rid);
    Status st = idx->tree->IndexInsert(ctx, entry_key, rid);
    if (st.IsKeyExists() && idx->unique) {
      // Replay has no GC: a unique entry can still map to a row whose delete
      // happened before the checkpoint cut but whose entry was never purged
      // (the image carries it verbatim). Reclaim the mapping iff that row is
      // dead; a live mismatch would be a corrupt history and is left alone.
      uint64_t existing = 0;
      Status ls = idx->tree->IndexLookup(ctx, entry_key, &existing);
      if (!ls.ok() && !ls.IsNotFound()) return ls;
      if (ls.ok() && existing != rid && !ReplayRowLive(ctx, existing)) {
        PHOEBE_RETURN_IF_ERROR(idx->tree->IndexRemove(ctx, entry_key));
        st = idx->tree->IndexInsert(ctx, entry_key, rid);
      }
    }
    if (!st.ok() && !st.IsKeyExists()) return st;
  }
  return Status::OK();
}

bool Table::ReplayRowLive(OpContext* ctx, RowId rid) {
  LeafGuard g;
  Status st =
      tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kShared, &g);
  if (!st.ok()) return false;
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  return leaf.InRange(rid) && leaf.IsLive(slot = leaf.SlotOf(rid)) &&
         !leaf.IsDeleted(slot);
}

Status Table::ReplayUpdate(OpContext* ctx, RowId rid, Slice after_delta) {
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(
      tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kExclusive, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  if (!leaf.InRange(rid) || !leaf.IsLive(slot = leaf.SlotOf(rid))) {
    return Status::OK();  // row purged later in history; ignore
  }
  Arena* arena = ScratchOf(ctx, nullptr);
  Result<Slice> cur = leaf.ReadRowTo(slot, arena);
  if (!cur.ok()) return cur.status();
  Result<Slice> next =
      DeltaCodec::ApplyDeltaTo(schema_, cur.value(), after_delta, arena);
  if (!next.ok()) return next.status();
  RowView old_view(&schema_, cur.value().data());
  RowView new_view(&schema_, next.value().data());
  PHOEBE_RETURN_IF_ERROR(leaf.UpdateRow(slot, new_view));
  g.frame()->dirty.store(true, std::memory_order_release);
  g.Release();

  // Key-changing updates: refresh index entries.
  return ForEachKeyChange(
      after_delta, old_view, new_view, arena,
      [&](IndexDef& idx, Slice old_key, Slice new_key) {
        (void)IndexRemoveEntry(ctx, idx, old_key, rid);
        Status st = idx.tree->IndexInsert(
            ctx, IndexEntryKey(idx, new_key, rid), rid);
        return st.IsKeyExists() ? Status::OK() : st;
      });
}

Status Table::ReplayDelete(OpContext* ctx, RowId rid) {
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(
      tree_->FixLeaf(ctx, BTree::TableKey(rid), LatchMode::kExclusive, &g));
  TableLeaf leaf(g.page(), &schema_, &layout_);
  uint16_t slot;
  if (leaf.InRange(rid) && leaf.IsLive(slot = leaf.SlotOf(rid))) {
    Arena* arena = ScratchOf(ctx, nullptr);
    Result<Slice> row = leaf.ReadRowTo(slot, arena);
    if (!row.ok()) return row.status();
    PHOEBE_RETURN_IF_ERROR(leaf.SetDeleted(slot, true));
    g.frame()->dirty.store(true, std::memory_order_release);
    g.Release();
    // In forward operation the index entry outlives the delete until GC
    // purges it; replay has no GC, so drop it now — otherwise a replayed
    // re-insert of the same unique key can never claim the mapping.
    return ForEachIndexKey(RowView(&schema_, row.value().data()), arena,
                           [&](IndexDef& idx, Slice key) {
                             return IndexRemoveEntry(ctx, idx, key, rid);
                           });
  }
  g.Release();
  // Row not in the tree: it was frozen before the checkpoint; tombstone it.
  if (frozen_ != nullptr && rid <= frozen_->max_frozen_row_id()) {
    frozen_->MarkDeleted(rid);
  }
  return Status::OK();
}

Status Table::DropStorage(OpContext* ctx) {
  for (auto& idx : indexes_) {
    PHOEBE_RETURN_IF_ERROR(idx->tree->Drop(ctx));
  }
  indexes_.clear();
  PHOEBE_RETURN_IF_ERROR(tree_->Drop(ctx));
  frozen_.reset();
  return FrozenStore::Destroy(deps_->env, deps_->dir, name_);
}

Status Table::DropIndexAt(OpContext* ctx, size_t index_no) {
  if (index_no >= indexes_.size()) {
    return Status::NotFound("no such index");
  }
  PHOEBE_RETURN_IF_ERROR(indexes_[index_no]->tree->Drop(ctx));
  indexes_.erase(indexes_.begin() + static_cast<long>(index_no));
  return Status::OK();
}

Result<PageId> Table::Checkpoint(OpContext* ctx) {
  PHOEBE_RETURN_IF_ERROR(frozen_->Checkpoint());
  return tree_->Checkpoint(ctx);
}

}  // namespace phoebe
