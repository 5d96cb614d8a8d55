#ifndef PHOEBE_TXN_TWIN_TABLE_H_
#define PHOEBE_TXN_TWIN_TABLE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "buffer/buffer_frame.h"
#include "common/constants.h"
#include "txn/undo.h"

namespace phoebe {

/// Page-level mapping table linking tuples to their UNDO version chains
/// (Section 6.2). Created lazily on the first modification of a page;
/// attached to the page's BufferFrame (which pins the frame in memory while
/// the twin table lives). Each entry holds the version-chain head; the
/// head's ets doubles as the tuple lock (an XID while its writer runs,
/// Section 7.2).
class TwinTable {
 public:
  struct Entry {
    std::atomic<UndoRecord*> head{nullptr};
  };

  explicit TwinTable(uint16_t capacity) : entries_(capacity) {}

  Entry& entry(uint16_t slot) { return entries_[slot]; }
  uint16_t capacity() const { return static_cast<uint16_t>(entries_.size()); }

  /// Largest XID that has modified any entry (drives twin-table GC:
  /// reclaimable once <= max frozen XID, Section 7.3).
  void NoteWriter(Xid xid) {
    uint64_t cur = max_writer_.load(std::memory_order_relaxed);
    while (XidStartTs(xid) > cur &&
           !max_writer_.compare_exchange_weak(cur, XidStartTs(xid),
                                              std::memory_order_relaxed)) {
    }
  }
  Timestamp max_writer_start_ts() const {
    return max_writer_.load(std::memory_order_relaxed);
  }

  /// True when every entry's chain head is null or reclaimed — precondition
  /// for freeing the twin table.
  bool AllChainsDead() const {
    for (const auto& e : entries_) {
      UndoRecord* h = e.head.load(std::memory_order_acquire);
      if (h != nullptr && h->IsLive(nullptr)) return false;
    }
    return true;
  }

  /// Fetches the twin table attached to `bf`, or nullptr.
  static TwinTable* Of(BufferFrame* bf) {
    return static_cast<TwinTable*>(bf->twin.load(std::memory_order_acquire));
  }

  /// Returns the twin table of `bf`, creating one sized to `capacity` if
  /// absent. Caller holds the frame's exclusive latch.
  static TwinTable* GetOrCreate(BufferFrame* bf, uint16_t capacity) {
    TwinTable* t = Of(bf);
    if (t == nullptr) {
      t = new TwinTable(capacity);
      bf->twin.store(t, std::memory_order_release);
    }
    return t;
  }

  /// Detaches and deletes the twin table of `bf`. Caller holds the frame's
  /// exclusive latch and has verified AllChainsDead().
  static void Destroy(BufferFrame* bf) {
    TwinTable* t = Of(bf);
    if (t != nullptr) {
      bf->twin.store(nullptr, std::memory_order_release);
      delete t;
    }
  }

 private:
  std::vector<Entry> entries_;
  std::atomic<uint64_t> max_writer_{0};
};

}  // namespace phoebe

#endif  // PHOEBE_TXN_TWIN_TABLE_H_
