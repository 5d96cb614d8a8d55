#ifndef PHOEBE_TXN_VISIBILITY_H_
#define PHOEBE_TXN_VISIBILITY_H_

#include <string>

#include "common/arena.h"
#include "common/constants.h"
#include "common/status.h"
#include "storage/schema.h"
#include "txn/transaction.h"
#include "txn/twin_table.h"

namespace phoebe {

class TxnManager;

/// Result of a visibility check: the tuple version visible to a snapshot.
/// `row` is a borrowed slice — when the base tuple was directly visible it
/// aliases the caller's `base_row` bytes (assembled == false, no copy made);
/// when a delta chain had to be applied it points into the scratch arena
/// (assembled == true). Either way it is only valid while those bytes are:
/// callers that release the page latch must pass a `base_row` that survives
/// the release (e.g. materialized into the arena first).
struct VisibleVersion {
  bool exists = false;
  Slice row;
  bool assembled = false;  // true -> a delta chain was applied (arena bytes)
  /// Commit timestamp of the version returned, tombstones included; 0 when
  /// its commit is known to be finished (no chain, or the chain record was
  /// reclaimed) or the version is the reader's own write.
  Timestamp cts = 0;
};

/// Retrieve-visible-version (Algorithm 1 in the paper). Inputs:
///   - `base_row` / `base_deleted`: the in-place (newest) tuple state read
///     from the PAX page under its latch;
///   - `entry`: the tuple's twin-table entry, or nullptr when the page has
///     no twin table (the tuple is immediately visible, line 2);
///   - `xid` / `snapshot`: the reading transaction's identity and snapshot;
///   - `arena`: scratch for chain-walk delta copies and version assembly.
///
/// The version chain is walked newest-to-oldest, assembling before-image
/// deltas until the first record with sts <= snapshot (lines 5-9). Records
/// reclaimed concurrently are detected via the stamp protocol and resolve to
/// "base visible" (line 4), matching the paper's reclaimed-pointer rule.
///
/// A head whose writer has taken a commit timestamp at or below `snapshot`
/// but not yet stamped its ets is visible: `txns` resolves the writer's
/// commit progress (TxnManager::CommitTsOf), so a snapshot reads the same
/// version before and after the stamp. The caller must hold the page latch
/// `base_row` was read under, so the head cannot be rolled back meanwhile.
Status RetrieveVisibleVersion(const Schema& schema, Xid xid,
                              Timestamp snapshot, Slice base_row,
                              bool base_deleted, TwinTable::Entry* entry,
                              RelationId relation, RowId rid, Arena* arena,
                              const TxnManager& txns, VisibleVersion* out);

/// Write-conflict decision for updates/deletes (Section 6.2 end):
///   kOk       -> proceed (no concurrent writer; latest version committed
///                visibly for this isolation level)
///   kBlocked  -> another active transaction owns the tuple; wait on its
///                XID lock and retry (Read Committed), carrying wait_xid
///   kAborted  -> Repeatable Read first-updater-wins: a concurrent
///                transaction committed a newer version after our snapshot
Status CheckWriteConflict(Xid xid, Timestamp snapshot, IsolationLevel iso,
                          TwinTable::Entry* entry, RelationId relation,
                          RowId rid);

}  // namespace phoebe

#endif  // PHOEBE_TXN_VISIBILITY_H_
