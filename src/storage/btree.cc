#include "storage/btree.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/profiler.h"
#include "io/io_stats.h"

namespace phoebe {

namespace {

/// Parent latch helper: the root's parent is the tree's meta latch.
HybridLatch* ParentLatch(BTree* tree, BufferFrame* parent,
                         HybridLatch* meta) {
  return parent != nullptr ? &parent->latch : meta;
}

void BlockedBackoff(OpContext* ctx) {
  if (ctx->synchronous) std::this_thread::yield();
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

BTree::BTree(BufferPool* pool, BTreeRegistry* registry, TreeKind kind,
             const Schema* schema, const TableLeafLayout* layout)
    : pool_(pool),
      registry_(registry),
      kind_(kind),
      schema_(schema),
      layout_(layout) {}

Result<std::unique_ptr<BTree>> BTree::Create(BufferPool* pool,
                                             BTreeRegistry* registry,
                                             TreeKind kind,
                                             const Schema* schema,
                                             const TableLeafLayout* layout) {
  std::unique_ptr<BTree> tree(new BTree(pool, registry, kind, schema, layout));
  OpContext ctx;
  ctx.synchronous = true;
  BufferFrame* root = nullptr;
  Status st = tree->AllocFrame(&ctx, &root);
  if (!st.ok()) return Result<std::unique_ptr<BTree>>(st);
  if (kind == TreeKind::kTable) {
    TableLeaf::Init(root->page, *schema, *layout, /*first_row_id=*/1);
  } else {
    IndexLeaf::Init(root->page);
  }
  root->parent = nullptr;
  root->dirty.store(true, std::memory_order_relaxed);
  tree->root_.SetHot(root);
  root->latch.UnlockExclusive();
  registry->Register(tree.get());
  return Result<std::unique_ptr<BTree>>(std::move(tree));
}

Result<std::unique_ptr<BTree>> BTree::OpenFromRoot(
    BufferPool* pool, BTreeRegistry* registry, TreeKind kind,
    const Schema* schema, const TableLeafLayout* layout, PageId root_page) {
  std::unique_ptr<BTree> tree(new BTree(pool, registry, kind, schema, layout));
  OpContext ctx;
  ctx.synchronous = true;
  BufferFrame* root = nullptr;
  Status st = tree->AllocFrame(&ctx, &root);
  if (!st.ok()) return Result<std::unique_ptr<BTree>>(st);
  st = pool->LoadPageSync(root_page, root);
  if (!st.ok()) {
    root->latch.UnlockExclusive();
    pool->FreeFrame(root);
    return Result<std::unique_ptr<BTree>>(st);
  }
  root->parent = nullptr;
  root->page_id = root_page;
  tree->root_.SetHot(root);
  root->latch.UnlockExclusive();
  registry->Register(tree.get());
  return Result<std::unique_ptr<BTree>>(std::move(tree));
}

BTree::~BTree() { registry_->Unregister(this); }

BufferFrame* BTree::root_frame() const {
  return root_.IsHot() ? root_.frame() : nullptr;
}

std::string BTree::TableKey(RowId rid) {
  std::string key(8, '\0');
  EncodeBigEndian64(key.data(), rid);
  return key;
}

// ---------------------------------------------------------------------------
// Frame allocation & eviction entry points
// ---------------------------------------------------------------------------

Status BTree::AllocFrame(OpContext* ctx, BufferFrame** out) {
  for (int attempt = 0; attempt < 4096; ++attempt) {
    BufferFrame* bf = pool_->AllocateFrame(ctx->partition);
    if (bf != nullptr) {
      // Fresh frames can still have stale optimistic readers racing on the
      // latch word; acquire exclusively before exposing.
      while (!bf->latch.TryLockExclusive()) CpuRelax();
      bf->btree = this;
      *out = bf;
      return Status::OK();
    }
    Status st = registry_->EnsureFreeFrames(ctx, ctx->partition);
    if (!st.ok() && !ctx->synchronous) return st;
    if (!ctx->synchronous && attempt > 8) {
      return Status::Blocked(WaitKind::kLatch);
    }
    std::this_thread::yield();
  }
  return Status::BufferFull();
}

// ---------------------------------------------------------------------------
// Swip resolution (COOLING second chance, EVICTED load)
// ---------------------------------------------------------------------------

Status BTree::ResolveSwip(OpContext* ctx, Swip* swip, BufferFrame* parent) {
  // The caller holds the parent's optimistic version and restarts after this
  // returns OK, so transient failures simply restart the descent.
  uint64_t w = swip->raw();
  if ((w & Swip::kTagMask) == Swip::kTagCooling) {
    // Second chance: pull the frame back to HOT before the evictor gets it.
    BufferFrame* bf = reinterpret_cast<BufferFrame*>(w & ~Swip::kTagMask);
    if (swip->CasRaw(w, Swip::HotWord(bf))) {
      bf->state.store(FrameState::kHot, std::memory_order_release);
      pool_->RemoveCooling(bf);
    }
    return Status::OK();
  }
  if ((w & Swip::kTagMask) != Swip::kTagEvicted) return Status::OK();

  PageId pid = w >> 2;
  if (pid == (kInvalidPageId >> 2)) {
    return Status::Corruption("evicted swip with invalid page id");
  }

  if (ctx->synchronous) {
    // Allocate the landing frame BEFORE latching the parent: reclaiming a
    // frame may need to cool/evict victims, which locks the victims'
    // parents — and with layout-v2's high-fanout inners the parent here is
    // often the root itself, so allocating under it would starve eviction
    // into kBufferFull.
    BufferFrame* bf = nullptr;
    Status st = AllocFrame(ctx, &bf);
    if (!st.ok()) return st;
    // Blocking load: latch the parent exclusively so the swip cannot move.
    HybridLatch* platch = ParentLatch(this, parent, &meta_latch_);
    if (!platch->SpinLockExclusive(1 << 16)) {
      bf->latch.UnlockExclusive();
      pool_->FreeFrame(bf);
      return Status::OK();  // restart
    }
    if (swip->raw() != w) {
      platch->UnlockExclusive();
      bf->latch.UnlockExclusive();
      pool_->FreeFrame(bf);
      return Status::OK();  // resolved by someone else; restart
    }
    st = pool_->LoadPageSync(pid, bf);
    if (!st.ok()) {
      bf->latch.UnlockExclusive();
      pool_->FreeFrame(bf);
      platch->UnlockExclusive();
      return st;
    }
    bf->page_id = pid;
    bf->parent = parent;
    bf->btree = this;
    swip->SetHot(bf);
    bf->latch.UnlockExclusive();
    platch->UnlockExclusive();
    return Status::OK();
  }

  // Asynchronous path: at most one outstanding load per task slot.
  auto& load = ctx->load;
  if (load.active) {
    if (!load.req.done()) return Status::Blocked(WaitKind::kAsyncRead);
    if (load.page_id == pid && load.tree == this) {
      return FinishPendingLoad(ctx, swip, parent);
    }
    // Pending load is for some other page (the descent moved); discard it.
    load.frame->latch.UnlockExclusive();
    pool_->FreeFrame(load.frame);
    load.active = false;
  }
  BufferFrame* bf = nullptr;
  Status st = AllocFrame(ctx, &bf);
  if (!st.ok()) return st;
  load.frame = bf;
  load.page_id = pid;
  load.tree = this;
  load.active = true;
  pool_->LoadPageAsync(&load.req, pool_->page_file(), pid, bf->page);
  return Status::Blocked(WaitKind::kAsyncRead);
}

Status BTree::FinishPendingLoad(OpContext* ctx, Swip* swip,
                                BufferFrame* parent) {
  auto& load = ctx->load;
  BufferFrame* bf = load.frame;
  Status io_st = load.req.result;
  if (io_st.ok()) {
    io_st = BufferPool::VerifyPageCrc(bf->page, load.page_id);
    if (!io_st.ok()) {
      // The async read may have absorbed in-flight corruption; fall back to
      // one synchronous load, which re-reads, re-verifies, and quarantines
      // the page if it is corrupt on disk too.
      IoStats::Global().crc_rereads.fetch_add(1, std::memory_order_relaxed);
      io_st = pool_->LoadPageSync(load.page_id, bf);
    }
  }
  if (!io_st.ok()) {
    bf->latch.UnlockExclusive();
    pool_->FreeFrame(bf);
    load.active = false;
    return io_st;
  }
  HybridLatch* platch = ParentLatch(this, parent, &meta_latch_);
  if (!platch->SpinLockExclusive(ctx->latch_spin_budget)) {
    return Status::Blocked(WaitKind::kLatch);
  }
  uint64_t w = swip->raw();
  if ((w & Swip::kTagMask) == Swip::kTagEvicted && (w >> 2) == load.page_id) {
    bf->page_id = load.page_id;
    bf->parent = parent;
    bf->btree = this;
    swip->SetHot(bf);
    bf->latch.UnlockExclusive();
  } else {
    // Someone else loaded the page first; drop our copy.
    bf->latch.UnlockExclusive();
    pool_->FreeFrame(bf);
  }
  platch->UnlockExclusive();
  load.active = false;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Optimistic descent
// ---------------------------------------------------------------------------

Status BTree::DescendToLeaf(OpContext* ctx, const Slice& key, LatchMode mode,
                            bool leftmost, bool rightmost, LeafGuard* out,
                            BufferFrame** parent_out) {
  ComponentScope prof(Component::kLatching);
  int restarts = 0;
  for (;;) {
    if (++restarts > 64 && !ctx->synchronous) {
      return Status::Blocked(WaitKind::kLatch);
    }
    if (restarts > 1) BlockedBackoff(ctx);

    HybridLatch* platch = &meta_latch_;
    uint64_t pv = 0;
    if (!platch->TryOptimisticLatch(&pv)) continue;
    Swip* cur = &root_;
    BufferFrame* parent_bf = nullptr;

    bool restart = false;
    for (;;) {
      if (!cur->IsHot()) {
        Status st = ResolveSwip(ctx, cur, parent_bf);
        if (!st.ok()) return st;
        restart = true;
        break;
      }
      BufferFrame* bf = cur->frame();
      uint64_t v = 0;
      if (!bf->latch.TryOptimisticLatch(&v)) {
        restart = true;
        break;
      }
      if (!platch->ValidateOptimistic(pv)) {
        restart = true;
        break;
      }
      NodeKind nk = PageKind(bf->page);
      if (nk == NodeKind::kInner) {
        InnerNode* inner = InnerNode::Cast(bf->page);
        uint16_t idx;
        if (leftmost) {
          idx = 0;
        } else if (rightmost) {
          idx = static_cast<uint16_t>(inner->num_children() - 1);
        } else {
          ComponentScope search_prof(Component::kBtreeSearch);
          idx = inner->FindChild(key);
        }
        Swip* child = inner->ChildAt(idx);
        if (!bf->latch.ValidateOptimistic(v)) {
          restart = true;
          break;
        }
        platch = &bf->latch;
        pv = v;
        parent_bf = bf;
        cur = child;
        continue;
      }
      // Leaf reached: acquire the requested pessimistic latch.
      if (mode == LatchMode::kExclusive) {
        if (!bf->latch.TryUpgradeToExclusive(v)) {
          restart = true;
          break;
        }
      } else {
        if (!bf->latch.TryLockShared()) {
          restart = true;
          break;
        }
        if (!bf->latch.ValidateOptimistic(v)) {
          bf->latch.UnlockShared();
          restart = true;
          break;
        }
      }
      if (ctx->count_accesses) bf->Touch(pool_->current_epoch());
      *out = LeafGuard(bf, mode);
      if (parent_out != nullptr) *parent_out = parent_bf;
      return Status::OK();
    }
    if (restart) continue;
  }
}

Status BTree::FixLeaf(OpContext* ctx, const Slice& key, LatchMode mode,
                      LeafGuard* out) {
  return DescendToLeaf(ctx, key, mode, false, false, out, nullptr);
}

bool BTree::LeafCovers(const char* page, const Slice& key) const {
  if (kind_ == TreeKind::kTable) {
    const RowId rid = DecodeBigEndian64(key.data());
    return TableLeaf(const_cast<char*>(page), schema_, layout_).InRange(rid);
  }
  const IndexLeaf* leaf = IndexLeaf::Cast(page);
  return key.compare(leaf->lower_fence()) >= 0 &&
         (!leaf->has_upper_fence() || key.compare(leaf->upper_fence()) < 0);
}

Status BTree::FixLeafShared(OpContext* ctx, const Slice& key,
                            LeafCache* cache, LeafGuard* out) {
  const LeafCache::Entry* e = cache != nullptr ? cache->Find(this) : nullptr;
  bool hit = false;
  if (e != nullptr && e->frame->latch.TryLockShared()) {
    // Every change that could make the entry wrong (split, merge, cooling,
    // eviction, detach, frame reuse) holds the exclusive latch, whose
    // unlock bumps the version; the version cannot move while we hold the
    // shared latch. A cooling frame is left to the descent, whose
    // second-chance rescue makes it hot again. The page is read only now.
    BufferFrame* bf = e->frame;
    hit = (bf->latch.RawWord() >> HybridLatch::kVersionShift) == e->version &&
          bf->state.load(std::memory_order_acquire) == FrameState::kHot &&
          LeafCovers(bf->page, key);
    if (hit) {
      if (ctx->count_accesses) bf->Touch(pool_->current_epoch());
      *out = LeafGuard(bf, LatchMode::kShared);
    } else {
      bf->latch.UnlockShared();
    }
  }
  if (cache != nullptr && Profiler::enabled()) {
    Profiler::ThreadCounters& local = Profiler::Local();
    local.leaf_cache_reads += 1;
    local.leaf_cache_hits += hit ? 1 : 0;
  }
  if (hit) return Status::OK();
  PHOEBE_RETURN_IF_ERROR(
      DescendToLeaf(ctx, key, LatchMode::kShared, false, false, out, nullptr));
  if (cache != nullptr) {
    BufferFrame* bf = out->frame();
    cache->Record(this, bf, bf->latch.RawWord() >> HybridLatch::kVersionShift);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pessimistic descent (splits)
// ---------------------------------------------------------------------------

namespace {

/// X-latched path state for structure-modifying operations. Holds the
/// current parent latch (meta or inner frame) and releases on destruction.
struct XParent {
  HybridLatch* latch = nullptr;
  BufferFrame* frame = nullptr;  // nullptr when the parent is the meta latch

  void Release() {
    if (latch != nullptr) {
      latch->UnlockExclusive();
      latch = nullptr;
      frame = nullptr;
    }
  }
  ~XParent() { Release(); }
};

/// Re-parents all resident children of an inner node to `new_parent`.
void ReparentChildren(InnerNode* inner, BufferFrame* new_parent) {
  for (uint16_t i = 0; i < inner->num_children(); ++i) {
    Swip* s = inner->ChildAt(i);
    uint64_t w = s->raw();
    if ((w & Swip::kTagMask) != Swip::kTagEvicted) {
      reinterpret_cast<BufferFrame*>(w & ~Swip::kTagMask)->parent = new_parent;
    }
  }
}

constexpr size_t kSeparatorReserve =
    sizeof(InnerNode::Entry) + kMaxKeySize;

}  // namespace

Status BTree::GrowRoot(OpContext* ctx) {
  // Caller holds meta_latch_ exclusively and the root is HOT.
  BufferFrame* old_root = root_.frame();
  BufferFrame* new_root = nullptr;
  PHOEBE_RETURN_IF_ERROR(AllocFrame(ctx, &new_root));
  InnerNode::Init(new_root->page, Swip::HotWord(old_root));
  new_root->parent = nullptr;
  new_root->dirty.store(true, std::memory_order_relaxed);
  old_root->parent = new_root;
  root_.SetHot(new_root);
  new_root->latch.UnlockExclusive();
  return Status::OK();
}

Status BTree::PessimisticDescend(OpContext* ctx, const Slice& key,
                                 size_t sep_space_needed, LeafGuard* leaf_out,
                                 BufferFrame** parent_out) {
  (void)sep_space_needed;
  for (int restarts = 0;; ++restarts) {
    if (restarts > 64 && !ctx->synchronous) {
      return Status::Blocked(WaitKind::kLatch);
    }
    if (restarts > 0) BlockedBackoff(ctx);

    // Fault in the whole path first so the X-coupled walk below never hits
    // an evicted swip while holding latches.
    {
      LeafGuard warm;
      Status st = DescendToLeaf(ctx, key, LatchMode::kShared, false, false,
                                &warm, nullptr);
      if (!st.ok()) return st;
    }

    XParent parent;
    if (!meta_latch_.TryLockExclusive()) continue;
    parent.latch = &meta_latch_;
    parent.frame = nullptr;
    Swip* cur = &root_;

    bool restart = false;
    for (;;) {
      if (!cur->IsHot()) {
        restart = true;  // evicted mid-way; refault
        break;
      }
      BufferFrame* bf = cur->frame();
      if (!bf->latch.SpinLockExclusive(ctx->latch_spin_budget)) {
        restart = true;
        break;
      }
      NodeKind nk = PageKind(bf->page);
      if (nk != NodeKind::kInner) {
        // Leaf: return leaf X + parent X (caller releases both).
        *leaf_out = LeafGuard(bf, LatchMode::kExclusive);
        if (parent_out != nullptr) {
          *parent_out = parent.frame;  // nullptr => parent is meta
        }
        parent.latch = nullptr;  // ownership passes to the caller
        return Status::OK();
      }
      InnerNode* inner = InnerNode::Cast(bf->page);
      if (inner->FreeSpace() < kSeparatorReserve) {
        // Preemptive split of this inner node while its parent is latched.
        BufferFrame* right = nullptr;
        Status st = AllocFrame(ctx, &right);
        if (!st.ok()) {
          bf->latch.UnlockExclusive();
          return st;
        }
        std::string sep;
        inner->Split(right->page, &sep);
        right->btree = this;
        right->dirty.store(true, std::memory_order_relaxed);
        bf->dirty.store(true, std::memory_order_relaxed);
        ReparentChildren(InnerNode::Cast(right->page), right);
        if (parent.frame == nullptr) {
          // bf is the root: grow the tree.
          BufferFrame* new_root = nullptr;
          st = AllocFrame(ctx, &new_root);
          if (!st.ok()) {
            right->latch.UnlockExclusive();
            bf->latch.UnlockExclusive();
            return st;
          }
          InnerNode* root_inner =
              InnerNode::Init(new_root->page, Swip::HotWord(bf));
          root_inner->InsertSeparator(sep, Swip::HotWord(right));
          new_root->parent = nullptr;
          new_root->btree = this;
          new_root->dirty.store(true, std::memory_order_relaxed);
          bf->parent = new_root;
          right->parent = new_root;
          root_.SetHot(new_root);
          new_root->latch.UnlockExclusive();
        } else {
          InnerNode* pinner = InnerNode::Cast(parent.frame->page);
          pinner->InsertSeparator(sep, Swip::HotWord(right));
          parent.frame->dirty.store(true, std::memory_order_relaxed);
          right->parent = parent.frame;
        }
        right->latch.UnlockExclusive();
        bf->latch.UnlockExclusive();
        restart = true;  // structure changed: restart the walk
        break;
      }
      // Couple downward: release the old parent, keep bf latched.
      parent.Release();
      parent.latch = &bf->latch;
      parent.frame = bf;
      uint16_t idx;
      {
        ComponentScope search_prof(Component::kBtreeSearch);
        idx = inner->FindChild(key);
      }
      cur = inner->ChildAt(idx);
    }
    if (restart) continue;
  }
}

// ---------------------------------------------------------------------------
// Index-tree operations
// ---------------------------------------------------------------------------

Status BTree::SplitIndexLeaf(OpContext* ctx, BufferFrame* leaf,
                             BufferFrame* parent) {
  // leaf is X-latched; parent (inner, with separator space) is X-latched, or
  // nullptr when the leaf is the root (meta latch held by caller).
  BufferFrame* right = nullptr;
  Status st = AllocFrame(ctx, &right);
  if (!st.ok()) return st;
  IndexLeaf* node = IndexLeaf::Cast(leaf->page);
  std::string sep;
  node->Split(right->page, &sep);
  right->btree = this;
  right->dirty.store(true, std::memory_order_relaxed);
  leaf->dirty.store(true, std::memory_order_relaxed);
  if (parent == nullptr) {
    // Root leaf: grow (caller holds meta latch).
    BufferFrame* new_root = nullptr;
    st = AllocFrame(ctx, &new_root);
    if (!st.ok()) {
      right->latch.UnlockExclusive();
      return st;
    }
    InnerNode* root_inner =
        InnerNode::Init(new_root->page, Swip::HotWord(leaf));
    root_inner->InsertSeparator(sep, Swip::HotWord(right));
    new_root->parent = nullptr;
    new_root->btree = this;
    new_root->dirty.store(true, std::memory_order_relaxed);
    leaf->parent = new_root;
    right->parent = new_root;
    root_.SetHot(new_root);
    new_root->latch.UnlockExclusive();
  } else {
    InnerNode* pinner = InnerNode::Cast(parent->page);
    pinner->InsertSeparator(sep, Swip::HotWord(right));
    parent->dirty.store(true, std::memory_order_relaxed);
    right->parent = parent;
  }
  right->latch.UnlockExclusive();
  return Status::OK();
}

Status BTree::IndexInsert(OpContext* ctx, const Slice& key, uint64_t value) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key too long");
  }
  for (;;) {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(FixLeaf(ctx, key, LatchMode::kExclusive, &g));
    IndexLeaf* leaf = IndexLeaf::Cast(g.page());
    {
      ComponentScope search_prof(Component::kBtreeSearch);
      if (leaf->Find(key) >= 0) return Status::KeyExists();
      if (!leaf->HasSpaceFor(key.size()) &&
          leaf->FreeSpace() + leaf->DeadHeapBytes() >=
              sizeof(IndexLeaf::Entry) + key.size()) {
        // Compact only when reclaiming dead key bytes can actually make
        // room; a full leaf with a tight heap goes straight to the split.
        leaf->Compact();
      }
      if (leaf->HasSpaceFor(key.size())) {
        leaf->Insert(key, value);
        g.frame()->dirty.store(true, std::memory_order_relaxed);
        return Status::OK();
      }
    }
    g.Release();

    // Leaf is full: split via the pessimistic path, then retry.
    LeafGuard xleaf;
    BufferFrame* parent = nullptr;
    Status st = PessimisticDescend(ctx, key, key.size(), &xleaf, &parent);
    if (!st.ok()) return st;
    IndexLeaf* full = IndexLeaf::Cast(xleaf.page());
    bool parent_is_meta = (parent == nullptr);
    Status split_st = Status::OK();
    if (!full->HasSpaceFor(key.size())) {
      split_st = SplitIndexLeaf(ctx, xleaf.frame(), parent);
    }
    xleaf.Release();
    if (parent_is_meta) {
      meta_latch_.UnlockExclusive();
    } else {
      parent->latch.UnlockExclusive();
    }
    if (!split_st.ok()) return split_st;
  }
}

Status BTree::IndexRemove(OpContext* ctx, const Slice& key) {
  bool underfull = false;
  {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(FixLeaf(ctx, key, LatchMode::kExclusive, &g));
    IndexLeaf* leaf = IndexLeaf::Cast(g.page());
    {
      ComponentScope search_prof(Component::kBtreeSearch);
      if (!leaf->Remove(key)) return Status::NotFound();
    }
    g.frame()->dirty.store(true, std::memory_order_relaxed);
    underfull = leaf->Underfull();
  }
  if (underfull) TryMergeLeaf(ctx, key);
  return Status::OK();
}

Status BTree::IndexLookup(OpContext* ctx, const Slice& key, uint64_t* value,
                          LeafCache* cache) {
  LeafGuard g;
  PHOEBE_RETURN_IF_ERROR(FixLeafShared(ctx, key, cache, &g));
  IndexLeaf* leaf = IndexLeaf::Cast(g.page());
  int pos;
  {
    ComponentScope search_prof(Component::kBtreeSearch);
    pos = leaf->Find(key);
  }
  if (pos < 0) return Status::NotFound();
  *value = leaf->ValueAt(static_cast<uint16_t>(pos));
  return Status::OK();
}

void BTree::TryMergeLeaf(OpContext* ctx, const Slice& key) {
  // Best-effort structural shrink after a delete left the leaf underfull:
  // absorb the immediate RIGHT sibling (whose lower fence is this leaf's
  // upper fence). The survivor keeps its own parent slot and lower bound;
  // the parent update is a single RemoveChildAt of the right child and its
  // guarding separator — exactly the separator that was the merged fence
  // boundary. Requires the right sibling to be resident, under the same
  // parent, and uncontended; any bail-out leaves the tree merely unmerged,
  // never inconsistent.
  LeafGuard xleaf;
  BufferFrame* parent = nullptr;
  if (!PessimisticDescend(ctx, key, /*sep*/ 0, &xleaf, &parent).ok()) return;
  const bool parent_is_meta = (parent == nullptr);
  BufferFrame* right_bf = nullptr;
  do {
    if (parent_is_meta) break;  // root leaf: nothing to merge with
    if (PageKind(xleaf.page()) != NodeKind::kIndexLeaf) break;
    IndexLeaf* leaf = IndexLeaf::Cast(xleaf.page());
    if (!leaf->Underfull() || !leaf->has_upper_fence()) break;
    InnerNode* pinner = InnerNode::Cast(parent->page);
    int idx = pinner->FindChildBySwipWord(
        reinterpret_cast<uint64_t>(xleaf.frame()));
    if (idx < 0 || idx + 1 >= pinner->num_children()) break;
    Swip* rswip = pinner->ChildAt(static_cast<uint16_t>(idx + 1));
    uint64_t w = rswip->raw();
    if ((w & Swip::kTagMask) == Swip::kTagEvicted) break;  // not resident
    BufferFrame* rbf = reinterpret_cast<BufferFrame*>(w & ~Swip::kTagMask);
    if (!rbf->latch.TryLockExclusive()) break;
    right_bf = rbf;
    if (PageKind(rbf->page) != NodeKind::kIndexLeaf) break;
    if (rbf->twin.load(std::memory_order_acquire) != nullptr) break;
    IndexLeaf* right = IndexLeaf::Cast(rbf->page);
    if (!leaf->MergeFrom(right)) break;  // merged payload would overflow
    pinner->RemoveChildAt(static_cast<uint16_t>(idx + 1));
    xleaf.frame()->dirty.store(true, std::memory_order_relaxed);
    parent->dirty.store(true, std::memory_order_relaxed);
    if (rbf->state.load(std::memory_order_relaxed) == FrameState::kCooling) {
      pool_->RemoveCooling(rbf);
    }
    if (rbf->page_id != kInvalidPageId) {
      pool_->page_file()->FreePage(rbf->page_id);
    }
    // Unlatch first (bumps the version for stale optimistic readers), then
    // recycle the frame — the DetachTableLeaf ordering.
    rbf->latch.UnlockExclusive();
    pool_->FreeFrame(rbf);
    right_bf = nullptr;
  } while (false);
  if (right_bf != nullptr) right_bf->latch.UnlockExclusive();
  xleaf.Release();
  if (parent_is_meta) {
    meta_latch_.UnlockExclusive();
  } else {
    parent->latch.UnlockExclusive();
  }
}

Status BTree::IndexScan(OpContext* ctx, const Slice& lo, const Slice& hi,
                        const std::function<bool(Slice, uint64_t)>& cb) {
  std::string cursor = lo.ToString();
  // Keys are stored prefix-truncated; materialize full keys for the callback
  // by writing the node prefix once per leaf and each suffix in place. The
  // 16-byte slack past kMaxKeySize lets the hot path copy a constant 16
  // bytes instead of a variable-length memcpy.
  char kbuf[kMaxKeySize + 16];
  for (;;) {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(FixLeaf(ctx, cursor, LatchMode::kShared, &g));
    IndexLeaf* leaf = IndexLeaf::Cast(g.page());
    uint16_t pos;
    {
      ComponentScope prof(Component::kBtreeSearch);
      pos = leaf->LowerBound(cursor);
    }
    const size_t plen = leaf->prefix_len();
    const char* const page_end =
        reinterpret_cast<const char*>(g.page()) + kPageSize;
    memcpy(kbuf, leaf->prefix().data(), plen);
    // Classify the exclusive bound against this leaf's prefix once, so the
    // per-key bound check is a short suffix compare (or nothing) instead of
    // a full-key compare. Every key here is prefix + suffix:
    //   hi < prefix       -> no key is < hi, the scan is done;
    //   hi > prefix block -> every key here is < hi, skip per-key checks;
    //   hi = prefix + t   -> key < hi  <=>  suffix < t.
    bool check_suffix = false;
    Slice hi_suffix;
    if (!hi.empty()) {
      const size_t m = hi.size() < plen ? hi.size() : plen;
      int c = memcmp(hi.data(), kbuf, m);
      if (c == 0 && hi.size() <= plen) c = -1;
      if (c < 0) return Status::OK();
      if (c == 0) {
        check_suffix = true;
        hi_suffix = Slice(hi.data() + plen, hi.size() - plen);
      }
    }
    for (; pos < leaf->count(); ++pos) {
      const Slice suf = leaf->SuffixAt(pos);
      if (check_suffix && suf.compare(hi_suffix) >= 0) return Status::OK();
      if (suf.size() <= 16 && suf.data() + 16 <= page_end) {
        // Constant-size copy (may drag along trailing in-page bytes; the
        // slice length below masks them). Guarded against reading past the
        // frame when the suffix sits at the very end of the page heap.
        memcpy(kbuf + plen, suf.data(), 16);
      } else {
        memcpy(kbuf + plen, suf.data(), suf.size());
      }
      Slice k(kbuf, plen + suf.size());
      if (!cb(k, leaf->ValueAt(pos))) return Status::OK();
    }
    if (!leaf->has_upper_fence()) return Status::OK();
    std::string next = leaf->upper_fence().ToString();
    if (!hi.empty() && Slice(next).compare(hi) >= 0) return Status::OK();
    g.Release();
    cursor = std::move(next);
  }
}

// ---------------------------------------------------------------------------
// Table-tree operations
// ---------------------------------------------------------------------------

Status BTree::AppendTableLeaf(OpContext* ctx, RowId first_row_id) {
  for (;;) {
    std::string key = TableKey(first_row_id);
    LeafGuard xleaf;
    BufferFrame* parent = nullptr;
    PHOEBE_RETURN_IF_ERROR(
        PessimisticDescend(ctx, key, /*sep*/ 8, &xleaf, &parent));
    bool parent_is_meta = (parent == nullptr);
    TableLeaf tail(xleaf.page(), schema_, layout_);
    Status result = Status::OK();
    bool done = false;

    if (tail.InRange(first_row_id)) {
      done = true;  // someone already created the covering leaf
    } else if (first_row_id < tail.first_row_id()) {
      result = Status::InvalidArgument("row id before tail leaf");
      done = true;
    } else {
      RowId next_start = tail.first_row_id() + tail.capacity();
      BufferFrame* fresh = nullptr;
      Status st = AllocFrame(ctx, &fresh);
      if (!st.ok()) {
        result = st;
        done = true;
      } else {
        TableLeaf::Init(fresh->page, *schema_, *layout_, next_start);
        fresh->btree = this;
        fresh->dirty.store(true, std::memory_order_relaxed);
        std::string sep = TableKey(next_start);
        if (parent_is_meta) {
          BufferFrame* new_root = nullptr;
          st = AllocFrame(ctx, &new_root);
          if (!st.ok()) {
            fresh->latch.UnlockExclusive();
            pool_->FreeFrame(fresh);
            result = st;
            done = true;
          } else {
            InnerNode* root_inner =
                InnerNode::Init(new_root->page, Swip::HotWord(xleaf.frame()));
            root_inner->InsertSeparator(sep, Swip::HotWord(fresh));
            new_root->parent = nullptr;
            new_root->btree = this;
            new_root->dirty.store(true, std::memory_order_relaxed);
            xleaf.frame()->parent = new_root;
            fresh->parent = new_root;
            root_.SetHot(new_root);
            new_root->latch.UnlockExclusive();
            fresh->latch.UnlockExclusive();
            done = next_start + layout_->capacity() > first_row_id;
          }
        } else {
          InnerNode* pinner = InnerNode::Cast(parent->page);
          pinner->InsertSeparator(sep, Swip::HotWord(fresh));
          parent->dirty.store(true, std::memory_order_relaxed);
          fresh->parent = parent;
          fresh->latch.UnlockExclusive();
          done = next_start + layout_->capacity() > first_row_id;
        }
      }
    }

    xleaf.Release();
    if (parent_is_meta) {
      meta_latch_.UnlockExclusive();
    } else {
      parent->latch.UnlockExclusive();
    }
    if (done && result.ok()) return Status::OK();
    if (!result.ok()) return result;
    // Need more than one new leaf (rare: ids ran far ahead); loop.
  }
}

Status BTree::DetachTableLeaf(
    OpContext* ctx, RowId first_row_id,
    const std::function<Status(TableLeaf&, BufferFrame*)>& prepare) {
  std::string key = TableKey(first_row_id);
  LeafGuard xleaf;
  BufferFrame* parent = nullptr;
  PHOEBE_RETURN_IF_ERROR(
      PessimisticDescend(ctx, key, /*sep*/ 8, &xleaf, &parent));
  bool parent_is_meta = (parent == nullptr);
  Status result = Status::OK();

  TableLeaf leaf(xleaf.page(), schema_, layout_);
  // Every check that can fail runs before `prepare`: once it has written the
  // frozen block, the leaf must leave the tree, or its rows would live in
  // two tiers.
  const int idx = parent_is_meta
                      ? -1
                      : InnerNode::Cast(parent->page)->FindChildBySwipWord(
                            reinterpret_cast<uint64_t>(xleaf.frame()));
  if (parent_is_meta) {
    result = Status::NotFound("cannot detach the root leaf");
  } else if (leaf.first_row_id() != first_row_id) {
    result = Status::NotFound("leaf anchor mismatch");
  } else if (xleaf.frame()->twin.load(std::memory_order_acquire) != nullptr) {
    result = Status::Aborted("leaf has live twin table");
  } else if (idx < 0) {
    result = Status::Corruption("detach: swip not found in parent");
  } else if (result = prepare(leaf, xleaf.frame()); result.ok()) {
    InnerNode::Cast(parent->page)->RemoveChildAt(static_cast<uint16_t>(idx));
    parent->dirty.store(true, std::memory_order_relaxed);
    BufferFrame* bf = xleaf.frame();
    if (bf->page_id != kInvalidPageId) {
      pool_->page_file()->FreePage(bf->page_id);
    }
    // Drop the leaf: unlatch (bumps version for stale readers) and free.
    xleaf.Release();
    pool_->FreeFrame(bf);
  }
  if (xleaf.held()) xleaf.Release();
  if (parent_is_meta) {
    meta_latch_.UnlockExclusive();
  } else {
    parent->latch.UnlockExclusive();
  }
  return result;
}

Status BTree::ForEachTableLeaf(
    OpContext* ctx,
    const std::function<bool(TableLeaf&, BufferFrame*)>& cb) {
  RowId cursor = 0;
  RowId last_seen_first = kInvalidRowId;
  for (;;) {
    LeafGuard g;
    PHOEBE_RETURN_IF_ERROR(
        FixLeaf(ctx, TableKey(cursor + 1), LatchMode::kExclusive, &g));
    TableLeaf leaf(g.page(), schema_, layout_);
    if (leaf.first_row_id() == last_seen_first) return Status::OK();
    last_seen_first = leaf.first_row_id();
    if (!cb(leaf, g.frame())) return Status::OK();
    cursor = leaf.first_row_id() + leaf.capacity() - 1;
  }
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status BTree::CheckpointRec(OpContext* ctx, BufferFrame* bf, char* scratch,
                            bool* changed) {
  bool child_changed = false;
  if (PageKind(bf->page) == NodeKind::kInner) {
    InnerNode* inner = InnerNode::Cast(bf->page);
    for (uint16_t i = 0; i < inner->num_children(); ++i) {
      Swip* s = inner->ChildAt(i);
      uint64_t w = s->raw();
      // Evicted children are already on disk at a stable id: either part of
      // the previous checkpoint image (shared), or written by an eviction
      // since then to an id that image does not reference.
      if ((w & Swip::kTagMask) == Swip::kTagEvicted) continue;
      BufferFrame* child =
          reinterpret_cast<BufferFrame*>(w & ~Swip::kTagMask);
      bool c = false;
      PHOEBE_RETURN_IF_ERROR(CheckpointRec(ctx, child, scratch, &c));
      child_changed |= c;
    }
  }
  // Copy-on-write: a dirty page (or an inner node whose children moved)
  // gets a NEW page id so the image referenced by the last durable catalog
  // is never overwritten mid-checkpoint. Clean subtrees keep their ids —
  // their images are shared with the previous checkpoint (standard
  // shadow-paging sharing), which makes an idle checkpoint nearly free.
  bool must_write = child_changed || bf->page_id == kInvalidPageId ||
                    bf->dirty.load(std::memory_order_acquire);
  if (!must_write) {
    *changed = false;
    return Status::OK();
  }
  PageId old_id = bf->page_id;
  bf->page_id = pool_->page_file()->AllocatePage();
  const char* image = bf->page;
  if (PageKind(bf->page) == NodeKind::kInner) {
    // Write a translated copy: resident child swips become on-disk page
    // ids in the image while the in-memory node keeps its hot pointers.
    // The frames stay resident, so an online checkpoint does not evict the
    // working set the way unswizzle-and-free would.
    memcpy(scratch, bf->page, kPageSize);
    InnerNode* copy = InnerNode::Cast(scratch);
    for (uint16_t i = 0; i < copy->num_children(); ++i) {
      Swip* s = copy->ChildAt(i);
      uint64_t w = s->raw();
      if ((w & Swip::kTagMask) == Swip::kTagEvicted) continue;
      BufferFrame* child =
          reinterpret_cast<BufferFrame*>(w & ~Swip::kTagMask);
      s->SetEvicted(child->page_id);
    }
    StampPageCrc(scratch);
    image = scratch;
  } else {
    StampPageCrc(bf->page);
  }
  PHOEBE_RETURN_IF_ERROR(pool_->page_file()->WritePage(bf->page_id, image));
  bf->dirty.store(false, std::memory_order_release);
  if (old_id != kInvalidPageId) {
    // Deferred while a durable image may reference it; published after the
    // next catalog commit.
    pool_->page_file()->FreePage(old_id);
  }
  *changed = true;
  return Status::OK();
}

Result<PageId> BTree::Checkpoint(OpContext* ctx) {
  if (!root_.IsHot()) {
    // Entire tree already on disk.
    return Result<PageId>(root_.page_id());
  }
  BufferFrame* root = root_.frame();
  std::vector<char> scratch(kPageSize);
  bool changed = false;
  Status st = CheckpointRec(ctx, root, scratch.data(), &changed);
  if (!st.ok()) return Result<PageId>(st);
  st = pool_->page_file()->Sync();
  if (!st.ok()) return Result<PageId>(st);
  return Result<PageId>(root->page_id);
}

namespace {

/// Recursively releases a subtree: resident frames go back to the pool,
/// on-disk pages back to the page file's free list.
Status DropRec(BufferPool* pool, const Schema* schema,
               const TableLeafLayout* layout, OpContext* ctx, Swip* swip) {
  uint64_t w = swip->raw();
  if ((w & Swip::kTagMask) == Swip::kTagEvicted) {
    PageId pid = w >> 2;
    if (pid != (kInvalidPageId >> 2)) {
      // Load inner pages to find their children; leaves are just freed.
      std::vector<char> page(kPageSize);
      PHOEBE_RETURN_IF_ERROR(pool->page_file()->ReadPage(pid, page.data()));
      if (PageKind(page.data()) == NodeKind::kInner) {
        InnerNode* inner = InnerNode::Cast(page.data());
        for (uint16_t i = 0; i < inner->num_children(); ++i) {
          PHOEBE_RETURN_IF_ERROR(
              DropRec(pool, schema, layout, ctx, inner->ChildAt(i)));
        }
      }
      pool->page_file()->FreePage(pid);
    }
    return Status::OK();
  }
  BufferFrame* bf = reinterpret_cast<BufferFrame*>(w & ~Swip::kTagMask);
  if (PageKind(bf->page) == NodeKind::kInner) {
    InnerNode* inner = InnerNode::Cast(bf->page);
    for (uint16_t i = 0; i < inner->num_children(); ++i) {
      PHOEBE_RETURN_IF_ERROR(
          DropRec(pool, schema, layout, ctx, inner->ChildAt(i)));
    }
  }
  if (bf->page_id != kInvalidPageId) {
    pool->page_file()->FreePage(bf->page_id);
  }
  if (bf->state.load(std::memory_order_relaxed) == FrameState::kCooling) {
    pool->RemoveCooling(bf);
  }
  void* twin = bf->twin.load(std::memory_order_acquire);
  if (twin != nullptr) {
    return Status::Aborted("drop: live twin table (not quiescent)");
  }
  pool->FreeFrame(bf);
  return Status::OK();
}

}  // namespace

Status BTree::Drop(OpContext* ctx) {
  PHOEBE_RETURN_IF_ERROR(DropRec(pool_, schema_, layout_, ctx, &root_));
  root_.SetEvicted(kInvalidPageId);
  return Status::OK();
}

namespace {

/// Quiescent recursive check that a resident subtree satisfies the layout-v2
/// invariants AND that every child's fence pair equals the key range its
/// parent routes to it ([sep_{i-1}, sep_i) reconstructed from the parent).
/// Evicted children and table leaves (no fences) are skipped.
Status CheckIntegrityRec(const char* page, const std::string& lower,
                         const std::string& upper, bool has_upper) {
  const NodeKind nk = PageKind(page);
  if (nk == NodeKind::kTableLeaf) return Status::OK();
  std::string err;
  if (nk == NodeKind::kIndexLeaf) {
    const IndexLeaf* leaf = IndexLeaf::Cast(page);
    if (!leaf->CheckInvariants(&err)) {
      return Status::Corruption("leaf invariant: " + err);
    }
    if (leaf->lower_fence() != Slice(lower)) {
      return Status::Corruption("leaf lower fence != parent routing bound");
    }
    if (leaf->has_upper_fence() != has_upper ||
        (has_upper && leaf->upper_fence() != Slice(upper))) {
      return Status::Corruption("leaf upper fence != parent routing bound");
    }
    return Status::OK();
  }
  const InnerNode* inner = InnerNode::Cast(page);
  if (!inner->CheckInvariants(&err)) {
    return Status::Corruption("inner invariant: " + err);
  }
  if (inner->lower_fence() != Slice(lower)) {
    return Status::Corruption("inner lower fence != parent routing bound");
  }
  if (inner->has_upper_fence() != has_upper ||
      (has_upper && inner->upper_fence() != Slice(upper))) {
    return Status::Corruption("inner upper fence != parent routing bound");
  }
  for (uint16_t i = 0; i < inner->num_children(); ++i) {
    const uint64_t w = const_cast<InnerNode*>(inner)->ChildAt(i)->raw();
    if ((w & Swip::kTagMask) == Swip::kTagEvicted) continue;
    const BufferFrame* child =
        reinterpret_cast<const BufferFrame*>(w & ~Swip::kTagMask);
    const std::string clower = (i == 0) ? lower : inner->FullKey(i - 1);
    const bool chas_upper = (i == inner->count()) ? has_upper : true;
    const std::string cupper =
        (i == inner->count()) ? upper : inner->FullKey(i);
    PHOEBE_RETURN_IF_ERROR(
        CheckIntegrityRec(child->page, clower, cupper, chas_upper));
  }
  return Status::OK();
}

}  // namespace

Status BTree::CheckIntegrity(OpContext* ctx) {
  (void)ctx;
  if (!root_.IsHot()) return Status::OK();  // fully evicted tree
  return CheckIntegrityRec(root_.frame()->page, std::string(), std::string(),
                           /*has_upper=*/false);
}

int BTree::Height(OpContext* ctx) {
  (void)ctx;
  int h = 1;
  // Count levels by walking leftmost. Quiescent/diagnostic use only.
  Swip* cur = &root_;
  while (cur->IsHot() && PageKind(cur->frame()->page) == NodeKind::kInner) {
    cur = InnerNode::Cast(cur->frame()->page)->ChildAt(0);
    ++h;
  }
  return h;
}

// ---------------------------------------------------------------------------
// BTreeRegistry: cooling + eviction (the page-swap housekeeping of §7.1)
// ---------------------------------------------------------------------------

void BTreeRegistry::Register(BTree* tree) {
  std::lock_guard<std::mutex> lk(mu_);
  trees_.push_back(tree);
}

void BTreeRegistry::Unregister(BTree* tree) {
  std::lock_guard<std::mutex> lk(mu_);
  trees_.erase(std::remove(trees_.begin(), trees_.end(), tree), trees_.end());
}

bool BTreeRegistry::IsCoolable(BufferFrame* bf) {
  if (bf->state.load(std::memory_order_acquire) != FrameState::kHot) {
    return false;
  }
  if (bf->btree == nullptr || bf->parent == nullptr) return false;  // root
  if (bf->twin.load(std::memory_order_acquire) != nullptr) return false;
  if (PageKind(bf->page) == NodeKind::kInner) {
    InnerNode* inner = InnerNode::Cast(bf->page);
    for (uint16_t i = 0; i < inner->num_children(); ++i) {
      uint64_t w = inner->ChildAt(i)->raw();
      if ((w & Swip::kTagMask) != Swip::kTagEvicted) return false;
    }
  }
  return true;
}

int BTreeRegistry::CoolRandomFrames(OpContext* ctx, uint32_t partition,
                                    int count) {
  ComponentScope prof(Component::kBufferManager);
  int cooled = 0;
  const int max_probes = count * 16;
  for (int probe = 0; probe < max_probes && cooled < count; ++probe) {
    BufferFrame* bf =
        pool_->FrameAt(partition, static_cast<size_t>(ctx->rng.Next()));
    if (!IsCoolable(bf)) continue;
    BufferFrame* parent = bf->parent;
    if (parent == nullptr) continue;
    if (!parent->latch.TryLockExclusive()) continue;
    if (bf->parent != parent || !IsCoolable(bf) ||
        PageKind(parent->page) != NodeKind::kInner) {
      parent->latch.UnlockExclusive();
      continue;
    }
    if (!bf->latch.TryLockExclusive()) {
      parent->latch.UnlockExclusive();
      continue;
    }
    InnerNode* pinner = InnerNode::Cast(parent->page);
    int idx = pinner->FindChildBySwipWord(reinterpret_cast<uint64_t>(bf));
    if (idx >= 0) {
      Swip* swip = pinner->ChildAt(static_cast<uint16_t>(idx));
      if (swip->raw() == Swip::HotWord(bf)) {
        swip->SetCooling(bf);
        pool_->PushCooling(bf);
        ++cooled;
      }
    }
    bf->latch.UnlockExclusive();
    parent->latch.UnlockExclusive();
  }
  return cooled;
}

bool BTreeRegistry::TryEvictOneCooling(OpContext* ctx, uint32_t partition) {
  return EvictCoolingBatch(ctx, partition, 1) > 0;
}

int BTreeRegistry::EvictCoolingBatch(OpContext* ctx, uint32_t partition,
                                     int max_n) {
  ComponentScope prof(Component::kBufferManager);
  // A victim whose parent swip and latches are secured. Frames that need
  // disk writes stay exclusively latched until the batched write-back
  // completes; clean frames are unswizzled immediately.
  struct Victim {
    BufferFrame* bf;
    BufferFrame* parent;
    Swip* swip;
  };
  std::vector<Victim> pending;
  int freed = 0;
  for (int attempt = 0; attempt < max_n; ++attempt) {
    BufferFrame* bf = pool_->PopCooling(partition);
    if (bf == nullptr) break;
    if (bf->state.load(std::memory_order_acquire) != FrameState::kCooling) {
      continue;  // already re-hot via second chance
    }
    BufferFrame* parent = bf->parent;
    if (parent == nullptr) continue;
    if (!parent->latch.TryLockExclusive()) {
      pool_->PushCooling(bf);
      continue;
    }
    if (bf->parent != parent || PageKind(parent->page) != NodeKind::kInner) {
      parent->latch.UnlockExclusive();
      pool_->PushCooling(bf);
      continue;
    }
    if (!bf->latch.TryLockExclusive()) {
      parent->latch.UnlockExclusive();
      pool_->PushCooling(bf);
      continue;
    }
    InnerNode* pinner = InnerNode::Cast(parent->page);
    int idx = pinner->FindChildBySwipWord(reinterpret_cast<uint64_t>(bf));
    Swip* swip = idx >= 0 ? pinner->ChildAt(static_cast<uint16_t>(idx))
                          : nullptr;
    if (swip != nullptr && swip->raw() == Swip::CoolingWord(bf) &&
        bf->twin.load(std::memory_order_acquire) == nullptr) {
      if (bf->dirty.load(std::memory_order_acquire) ||
          bf->page_id == kInvalidPageId) {
        // Never overwrite a page of the published checkpoint image: the
        // victim is written to a fresh id instead, the old id is freed
        // (deferred until the next publication), and the parent is dirtied
        // because its swip will hold the new id.
        PageFile* file = pool_->page_file();
        if (bf->page_id != kInvalidPageId && file->InImage(bf->page_id)) {
          file->FreePage(bf->page_id);
          bf->page_id = kInvalidPageId;
          parent->dirty.store(true, std::memory_order_release);
        }
        // Defer to the batched write-back; latches stay held.
        pending.push_back(Victim{bf, parent, swip});
        continue;
      }
      // Clean and already persisted: unswizzle immediately.
      swip->SetEvicted(bf->page_id);
      parent->latch.UnlockExclusive();
      bf->latch.UnlockExclusive();
      pool_->FreeFrame(bf);
      ++freed;
      continue;
    }
    if (swip != nullptr && swip->raw() == Swip::CoolingWord(bf)) {
      // Pinned by a twin table: restore to HOT.
      swip->SetHot(bf);
      bf->state.store(FrameState::kHot, std::memory_order_release);
    }
    parent->latch.UnlockExclusive();
    bf->latch.UnlockExclusive();
  }
  if (!pending.empty()) {
    std::vector<BufferFrame*> frames;
    frames.reserve(pending.size());
    for (const Victim& v : pending) frames.push_back(v.bf);
    std::vector<Status> statuses(pending.size());
    (void)pool_->WriteBackBatch(frames.data(), frames.size(),
                                statuses.data());
    for (size_t i = 0; i < pending.size(); ++i) {
      const Victim& v = pending[i];
      if (statuses[i].ok()) {
        v.swip->SetEvicted(v.bf->page_id);
        v.parent->latch.UnlockExclusive();
        v.bf->latch.UnlockExclusive();
        pool_->FreeFrame(v.bf);
        ++freed;
      } else {
        // Write failed: the frame stays resident and cooling.
        v.parent->latch.UnlockExclusive();
        v.bf->latch.UnlockExclusive();
        pool_->PushCooling(v.bf);
      }
    }
  }
  return freed;
}

Status BTreeRegistry::EnsureFreeFrames(OpContext* ctx, uint32_t partition) {
  // Batch size: enough to amortize I/O submission without holding too many
  // page latches at once during the write-back.
  constexpr int kEvictBatch = 8;
  int safety = static_cast<int>(pool_->frames_per_partition()) * 2 + 16;
  while ((pool_->FreeFrames(partition) == 0 ||
          pool_->NeedsEviction(partition)) &&
         safety-- > 0) {
    if (EvictCoolingBatch(ctx, partition, kEvictBatch) > 0) continue;
    if (CoolRandomFrames(ctx, partition, 8) == 0 &&
        pool_->CoolingFrames(partition) == 0) {
      // Nothing evictable in this partition.
      return pool_->FreeFrames(partition) > 0 ? Status::OK()
                                              : Status::BufferFull();
    }
  }
  return Status::OK();
}

}  // namespace phoebe
