#ifndef PHOEBE_STORAGE_BTREE_H_
#define PHOEBE_STORAGE_BTREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/swip.h"
#include "common/constants.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/leaf_cache.h"
#include "storage/node.h"
#include "storage/op_context.h"
#include "storage/schema.h"
#include "storage/table_leaf.h"

namespace phoebe {

class BTreeRegistry;

/// Latch mode requested for a fixed leaf.
enum class LatchMode : uint8_t { kShared, kExclusive };

/// RAII guard over a latched leaf frame.
class LeafGuard {
 public:
  LeafGuard() = default;
  LeafGuard(BufferFrame* frame, LatchMode mode) : frame_(frame), mode_(mode) {}
  LeafGuard(LeafGuard&& o) noexcept : frame_(o.frame_), mode_(o.mode_) {
    o.frame_ = nullptr;
  }
  LeafGuard& operator=(LeafGuard&& o) noexcept {
    Release();
    frame_ = o.frame_;
    mode_ = o.mode_;
    o.frame_ = nullptr;
    return *this;
  }
  LeafGuard(const LeafGuard&) = delete;
  LeafGuard& operator=(const LeafGuard&) = delete;
  ~LeafGuard() { Release(); }

  void Release() {
    if (frame_ == nullptr) return;
    if (mode_ == LatchMode::kExclusive) {
      frame_->latch.UnlockExclusive();
    } else {
      frame_->latch.UnlockShared();
    }
    frame_ = nullptr;
  }

  BufferFrame* frame() const { return frame_; }
  char* page() const { return frame_->page; }
  bool held() const { return frame_ != nullptr; }
  LatchMode mode() const { return mode_; }

 private:
  BufferFrame* frame_ = nullptr;
  LatchMode mode_ = LatchMode::kShared;
};

/// B-Tree with pointer swizzling and optimistic lock coupling (Sections 5.1,
/// 5.3, 7.2). One instance per relation: a *table tree* stores PAX leaves
/// keyed by row_id; an *index tree* stores (key, row_id) pairs in slotted
/// leaves. Traversals are optimistic (version-validated, latch-free);
/// leaf accesses take shared/exclusive latches — the paper's hybrid lock
/// strategy.
class BTree {
 public:
  enum class TreeKind : uint8_t { kTable, kIndex };

  /// Creates a fresh tree whose root starts as an empty leaf.
  /// `schema`/`layout` are required for table trees (must outlive the tree).
  static Result<std::unique_ptr<BTree>> Create(BufferPool* pool,
                                               BTreeRegistry* registry,
                                               TreeKind kind,
                                               const Schema* schema,
                                               const TableLeafLayout* layout);

  /// Re-opens a tree from a checkpointed root page.
  static Result<std::unique_ptr<BTree>> OpenFromRoot(
      BufferPool* pool, BTreeRegistry* registry, TreeKind kind,
      const Schema* schema, const TableLeafLayout* layout, PageId root_page);

  ~BTree();

  TreeKind kind() const { return kind_; }
  const Schema* schema() const { return schema_; }
  const TableLeafLayout* layout() const { return layout_; }
  BufferPool* pool() const { return pool_; }

  /// --- Generic access -------------------------------------------------------

  /// Descends to the leaf covering `key` and latches it in `mode`. May
  /// return kBlocked (latch contention or async read pending) in coroutine
  /// mode, or kBufferFull when no frame could be reclaimed.
  Status FixLeaf(OpContext* ctx, const Slice& key, LatchMode mode,
                 LeafGuard* out);

  /// Shared-mode FixLeaf that first re-enters the leaf `cache` holds for
  /// this tree (DESIGN.md §4h). The entry is used only if, once the leaf is
  /// shared-latched, its latch version is the recorded one, the frame is
  /// kHot and the leaf's key range covers `key`. Otherwise this descends
  /// like FixLeaf and records the leaf it lands on. `cache` may be null.
  Status FixLeafShared(OpContext* ctx, const Slice& key, LeafCache* cache,
                       LeafGuard* out);

  /// --- Index-tree operations ------------------------------------------------

  /// Inserts (key, value); kKeyExists if the key is present.
  Status IndexInsert(OpContext* ctx, const Slice& key, uint64_t value);

  /// Removes key; kNotFound if absent.
  Status IndexRemove(OpContext* ctx, const Slice& key);

  /// Point lookup; `cache` as for FixLeafShared.
  Status IndexLookup(OpContext* ctx, const Slice& key, uint64_t* value,
                     LeafCache* cache = nullptr);

  /// Range scan over [lo, hi): calls `cb(key, value)`; stop early when cb
  /// returns false. The callback runs under a shared leaf latch and must not
  /// re-enter the tree.
  Status IndexScan(OpContext* ctx, const Slice& lo, const Slice& hi,
                   const std::function<bool(Slice, uint64_t)>& cb);

  /// --- Table-tree operations ------------------------------------------------

  /// Appends a fresh rightmost PAX leaf anchored at `first_row_id`. Called
  /// by the table layer when row ids pass the end of the current tail leaf.
  Status AppendTableLeaf(OpContext* ctx, RowId first_row_id);

  /// Removes the leaf anchored at `first_row_id` from the tree (used when
  /// freezing consecutive leaves into a frozen block), after `prepare`
  /// returns OK for it. `prepare` runs with the leaf and its parent
  /// exclusively latched, so no writer can change the leaf between what
  /// `prepare` copies out of it and the detach; a non-OK status from it
  /// leaves the leaf in place and is returned. NotFound when no leaf is
  /// anchored there or it is the root leaf, Aborted when the leaf has a
  /// twin table. On success the frame is freed and any on-disk page
  /// recycled.
  Status DetachTableLeaf(
      OpContext* ctx, RowId first_row_id,
      const std::function<Status(TableLeaf&, BufferFrame*)>& prepare);

  /// Visits every resident + on-disk table leaf in row_id order (exclusive
  /// latched), for scans/freeze passes. `cb` returns false to stop.
  Status ForEachTableLeaf(OpContext* ctx,
                          const std::function<bool(TableLeaf&, BufferFrame*)>& cb);

  /// --- Maintenance ----------------------------------------------------------

  /// Root frame (pinned while the tree is open).
  BufferFrame* root_frame() const;

  /// Writes every dirty page of this tree to freshly allocated page ids
  /// (copy-on-write: the previous checkpoint's image is never overwritten)
  /// and returns the new root page id for the checkpoint catalog. Clean
  /// subtrees keep their ids and stay shared with the previous image; all
  /// frames stay resident. Quiescent callers only.
  Result<PageId> Checkpoint(OpContext* ctx);

  /// Releases every resident frame and recycles every on-disk page of this
  /// tree (DROP TABLE/INDEX). The tree is unusable afterwards. Quiescent
  /// callers only.
  Status Drop(OpContext* ctx);

  /// Height of the tree (1 = root is leaf). Approximate under concurrency.
  int Height(OpContext* ctx);

  /// Verifies the layout-v2 structural invariants of every resident node
  /// (fences, prefix derivation, key heads, hints, sort order) plus the
  /// parent/child fence chaining. Quiescent callers only; returns
  /// kCorruption with a description on the first violation.
  Status CheckIntegrity(OpContext* ctx);

  /// Encodes a row_id as a big-endian table-tree key.
  static std::string TableKey(RowId rid);

 private:
  friend class BTreeRegistry;

  BTree(BufferPool* pool, BTreeRegistry* registry, TreeKind kind,
        const Schema* schema, const TableLeafLayout* layout);

  /// Allocates + X-latches a fresh frame, running eviction when needed.
  Status AllocFrame(OpContext* ctx, BufferFrame** out);

  /// True iff the key range of the leaf on `page` covers `key`: its row-id
  /// range for a table leaf, its fence keys for an index leaf.
  bool LeafCovers(const char* page, const Slice& key) const;

  /// Resolves a non-HOT swip found during descent. Called with no latches
  /// held that the caller cannot drop; may return kBlocked.
  Status ResolveSwip(OpContext* ctx, Swip* swip, BufferFrame* parent);

  /// Finalizes/cancels the context's pending load if it matches `swip`.
  Status FinishPendingLoad(OpContext* ctx, Swip* swip, BufferFrame* parent);

  /// Optimistic descent to the leaf for `key`; latches it in `mode`.
  Status DescendToLeaf(OpContext* ctx, const Slice& key, LatchMode mode,
                       bool leftmost, bool rightmost, LeafGuard* out,
                       BufferFrame** parent_out);

  /// Pessimistic top-down descent with exclusive lock coupling, splitting
  /// full inner nodes preemptively; used to insert a separator or split a
  /// leaf. Returns the X-latched leaf + its X-latched parent inner node.
  Status PessimisticDescend(OpContext* ctx, const Slice& key,
                            size_t sep_space_needed, LeafGuard* leaf_out,
                            BufferFrame** parent_out);

  /// Splits an X-latched index leaf whose parent inner is X-latched and has
  /// room for the separator. Both latches released on return.
  Status SplitIndexLeaf(OpContext* ctx, BufferFrame* leaf, BufferFrame* parent);

  /// Ensures the root is an inner node (grows the tree by one level).
  Status GrowRoot(OpContext* ctx);

  /// Best-effort merge of the underfull leaf covering `key` with its right
  /// sibling (fence-preserving direction). Bails out silently on any
  /// contention or residency obstacle.
  void TryMergeLeaf(OpContext* ctx, const Slice& key);

  /// Post-order copy-on-write checkpoint walk. Dirty pages (and inner nodes
  /// whose children relocated) are written to freshly allocated page ids;
  /// clean subtrees are skipped and share their image with the previous
  /// checkpoint. Frames stay resident. `scratch` holds one page for
  /// swip-translated inner copies; `*changed` reports whether this
  /// subtree's image id moved.
  Status CheckpointRec(OpContext* ctx, BufferFrame* bf, char* scratch,
                       bool* changed);

  BufferPool* pool_;
  BTreeRegistry* registry_;
  TreeKind kind_;
  const Schema* schema_;
  const TableLeafLayout* layout_;

  /// Meta latch + root swip: the root's "parent" for latching purposes.
  HybridLatch meta_latch_;
  Swip root_;
};

/// Owns eviction across all trees of a database instance: the page-swap
/// housekeeping of Section 7.1 (each worker runs swaps for its own buffer
/// partition).
class BTreeRegistry {
 public:
  explicit BTreeRegistry(BufferPool* pool) : pool_(pool) {}

  void Register(BTree* tree);
  void Unregister(BTree* tree);

  /// Reclaims frames in `partition` until it is above the low watermark (or
  /// no progress can be made). Safe to call from any thread.
  Status EnsureFreeFrames(OpContext* ctx, uint32_t partition);

  /// Moves up to `count` random evictable hot frames of `partition` into the
  /// cooling stage (HOT -> COOLING swip transition).
  int CoolRandomFrames(OpContext* ctx, uint32_t partition, int count);

  /// Attempts to evict one cooling frame; returns true if a frame was freed.
  bool TryEvictOneCooling(OpContext* ctx, uint32_t partition);

  /// Pops up to `max_n` cooling frames, latches them, and writes the ones
  /// needing persistence back through the async I/O engine as ONE batch
  /// (CRCs stamped on the I/O threads), then unswizzles and frees every
  /// successfully written victim. Returns the number of frames freed.
  /// All latching is try-lock; contended victims go back to the FIFO.
  int EvictCoolingBatch(OpContext* ctx, uint32_t partition, int max_n);

  BufferPool* pool() { return pool_; }

 private:
  /// True when `bf` may enter cooling: hot-state B-Tree page, not a root,
  /// no twin table, and (for inner nodes) no resident children.
  static bool IsCoolable(BufferFrame* bf);

  BufferPool* pool_;
  std::mutex mu_;
  std::vector<BTree*> trees_;
};

}  // namespace phoebe

#endif  // PHOEBE_STORAGE_BTREE_H_
