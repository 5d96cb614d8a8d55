#include "txn/visibility.h"

#include "common/profiler.h"
#include "txn/txn_manager.h"

namespace phoebe {

namespace {

/// Snapshot of an UndoRecord's fields taken under the stamp protocol. The
/// delta is copied into the chain walker's arena (the record's own bytes may
/// be recycled at any moment); CheckWriteConflict never reads the delta and
/// skips the copy by passing a null arena.
struct RecordCopy {
  UndoKind kind;
  uint64_t sts;
  uint64_t ets;
  UndoRecord* next;
  Slice delta;
};

/// Copies `rec` if it is live and matches (relation, rid); re-validates the
/// stamp after copying so torn reads from a concurrent recycle are rejected.
bool CopyRecord(const UndoRecord* rec, RelationId relation, RowId rid,
                Arena* arena, RecordCopy* out) {
  uint64_t stamp = 0;
  if (!rec->IsLive(&stamp)) return false;
  if (rec->relation != relation || rec->rid != rid) return false;
  out->kind = rec->kind;
  out->sts = rec->sts.load(std::memory_order_acquire);
  out->ets = rec->ets.load(std::memory_order_acquire);
  out->next = rec->next.load(std::memory_order_acquire);
  if (arena != nullptr) {
    // Copy before the stamp re-check: a failed check discards the copy, a
    // passed check proves the copied bytes were consistent.
    out->delta = arena->Copy(Slice(rec->delta_data(), rec->delta_len));
  } else {
    out->delta = Slice();
  }
  return rec->StampUnchanged(stamp);
}

}  // namespace

Status RetrieveVisibleVersion(const Schema& schema, Xid xid,
                              Timestamp snapshot, Slice base_row,
                              bool base_deleted, TwinTable::Entry* entry,
                              RelationId relation, RowId rid, Arena* arena,
                              const TxnManager& txns, VisibleVersion* out) {
  ComponentScope prof(Component::kMvcc);
  // Lines 1-2: no twin table -> the tuple itself is visible. The row slice
  // borrows the caller's base_row bytes — no copy (the common OLTP case).
  auto base_visible = [&](Timestamp cts = 0) {
    out->exists = !base_deleted;
    out->assembled = false;
    out->cts = cts;
    if (out->exists) out->row = base_row;
    return Status::OK();
  };
  if (entry == nullptr) return base_visible();

  bool reread = false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    UndoRecord* head = entry->head.load(std::memory_order_acquire);
    // Lines 3-4: null or reclaimed header -> base visible.
    if (head == nullptr) return base_visible();
    RecordCopy hc;
    if (!CopyRecord(head, relation, rid, arena, &hc)) return base_visible();

    // Line 4: header ets committed at/before our snapshot, or our own write.
    if (!IsXid(hc.ets)) {
      if (hc.ets <= snapshot) return base_visible(hc.ets);
    } else if (hc.ets == xid) {
      return base_visible();
    } else if (std::optional<Timestamp> cts = txns.CommitTsOf(hc.ets)) {
      // The writer may be between taking its commit timestamp and stamping
      // it: a commit inside the snapshot makes its (base) version visible.
      if (*cts != 0 && *cts <= snapshot) return base_visible(*cts);
    } else if (!reread) {
      // Finished: a commit stamped the head before its slot's release store
      // that CommitTsOf acquired (a rollback needs the latch the caller
      // holds), so one re-read sees the stamp.
      reread = true;
      continue;
    }

    // Lines 5-9: walk the chain assembling before images in the arena.
    bool torn = false;
    Slice tuple = base_row;
    bool exists = !base_deleted;
    bool assembled = false;
    RecordCopy cur = hc;
    for (;;) {
      // Assemble cur's before image into the running tuple.
      switch (cur.kind) {
        case UndoKind::kUpdate: {
          Result<Slice> prev =
              DeltaCodec::ApplyDeltaTo(schema, tuple, cur.delta, arena);
          if (!prev.ok()) return prev.status();
          tuple = prev.value();
          assembled = true;
          exists = true;
          break;
        }
        case UndoKind::kDelete:
          // Before the delete the tuple existed with the same values.
          exists = true;
          break;
        case UndoKind::kInsert:
          // Before the insert the tuple did not exist.
          exists = false;
          break;
      }
      if (cur.sts <= snapshot) {
        out->exists = exists;
        out->row = exists ? tuple : Slice();
        out->assembled = exists && assembled;
        out->cts = cur.sts;
        return Status::OK();
      }
      if (cur.next == nullptr) {
        // sts > snapshot with no older record: the previous record was
        // reclaimed concurrently; retry from the head.
        torn = true;
        break;
      }
      RecordCopy next_copy;
      if (!CopyRecord(cur.next, relation, rid, arena, &next_copy)) {
        torn = true;  // next reclaimed mid-walk; retry
        break;
      }
      cur = next_copy;
    }
    if (!torn) break;
  }
  return Status::Corruption("version chain retry budget exhausted");
}

Status CheckWriteConflict(Xid xid, Timestamp snapshot, IsolationLevel iso,
                          TwinTable::Entry* entry, RelationId relation,
                          RowId rid) {
  if (entry == nullptr) return Status::OK();
  UndoRecord* head = entry->head.load(std::memory_order_acquire);
  if (head == nullptr) return Status::OK();
  RecordCopy hc;
  if (!CopyRecord(head, relation, rid, /*arena=*/nullptr, &hc)) {
    return Status::OK();
  }

  if (IsXid(hc.ets)) {
    if (hc.ets == xid) return Status::OK();  // our own earlier write
    // Another active writer: wait on its transaction-ID lock.
    return Status::Blocked(WaitKind::kXidLock, hc.ets);
  }
  if (iso == IsolationLevel::kRepeatableRead && hc.ets > snapshot) {
    // First-updater-wins: a concurrent transaction committed after our
    // snapshot (PostgreSQL: "could not serialize access").
    return Status::Aborted("concurrent update (repeatable read)");
  }
  return Status::OK();
}

}  // namespace phoebe
