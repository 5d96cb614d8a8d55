#ifndef PHOEBE_STORAGE_LEAF_CACHE_H_
#define PHOEBE_STORAGE_LEAF_CACHE_H_

#include <cstdint>

namespace phoebe {

class BTree;
struct BufferFrame;

/// The leaf a transaction last shared-latched in each of a few trees, so a
/// read whose key falls in that leaf again skips the descent from the root
/// (DESIGN.md §4h). An entry is only a hint: BTree::FixLeafShared uses it
/// only after re-checking it under the leaf's shared latch. It lives in the
/// Transaction (cleared at Begin), not in the OpContext, because an
/// OpContext can outlive the database whose frames an entry names.
class LeafCache {
 public:
  struct Entry {
    const BTree* tree = nullptr;
    BufferFrame* frame = nullptr;
    /// The frame latch's version while the leaf was shared-latched.
    uint64_t version = 0;
  };

  void Clear() {
    for (Entry& e : entries_) e.tree = nullptr;
    next_victim_ = 0;
  }

  const Entry* Find(const BTree* tree) const {
    for (const Entry& e : entries_) {
      if (e.tree == tree) return &e;
    }
    return nullptr;
  }

  void Record(const BTree* tree, BufferFrame* frame, uint64_t version) {
    Entry* slot = nullptr;
    for (Entry& e : entries_) {
      if (e.tree == tree) {
        slot = &e;
        break;
      }
      if (slot == nullptr && e.tree == nullptr) slot = &e;
    }
    if (slot == nullptr) slot = &entries_[next_victim_++ % kEntries];
    *slot = Entry{tree, frame, version};
  }

 private:
  static constexpr int kEntries = 8;
  Entry entries_[kEntries];
  uint32_t next_victim_ = 0;
};

}  // namespace phoebe

#endif  // PHOEBE_STORAGE_LEAF_CACHE_H_
