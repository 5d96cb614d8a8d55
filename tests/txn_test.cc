#include <gtest/gtest.h>

#include "common/arena.h"
#include "tests/test_util.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"
#include "txn/undo.h"
#include "txn/visibility.h"

namespace phoebe {
namespace {

Schema OneCol() {
  return Schema({{"v", ColumnType::kString, 8, false}});
}

std::string Row(const Schema& s, const std::string& v) {
  RowBuilder b(&s);
  b.SetString(0, v);
  return b.Encode().value();
}

std::string ValueOf(const Schema& s, Slice row) {
  return RowView(&s, row.data()).GetString(0).ToString();
}

/// Delta whose before-image sets column 0 to `v`.
std::string DeltaTo(const Schema& s, const std::string& v) {
  std::string row = Row(s, v);
  Arena arena;
  const uint32_t col = 0;
  return DeltaCodec::MakeDeltaTo(s, RowView(&s, row.data()), &col, 1, &arena)
      .ToString();
}

// --- GlobalClock ---------------------------------------------------------------

TEST(ClockTest, MonotoneAndAdvance) {
  GlobalClock clock;
  Timestamp a = clock.Next();
  Timestamp b = clock.Next();
  EXPECT_LT(a, b);
  EXPECT_GE(clock.Current(), b);
  clock.AdvanceTo(1000);
  EXPECT_GE(clock.Current(), 1000u);
  clock.AdvanceTo(5);  // never goes backward
  EXPECT_GE(clock.Current(), 1000u);
}

TEST(XidTest, LayoutHelpers) {
  Timestamp ts = 12345;
  Xid xid = MakeXid(ts);
  EXPECT_TRUE(IsXid(xid));
  EXPECT_FALSE(IsXid(ts));
  EXPECT_EQ(XidStartTs(xid), ts);
}

// --- UndoArena -------------------------------------------------------------------

TEST(UndoArenaTest, AllocStampsLive) {
  UndoArena arena;
  UndoRecord* rec = arena.Alloc(UndoKind::kUpdate, 1, 42, "delta");
  EXPECT_TRUE(rec->IsLive(nullptr));
  EXPECT_EQ(rec->delta(), Slice("delta"));
  EXPECT_EQ(rec->rid, 42u);
  EXPECT_EQ(arena.live_count(), 1u);
}

TEST(UndoArenaTest, QueueOrderReclamation) {
  UndoArena arena;
  std::vector<UndoRecord*> recs;
  for (int i = 0; i < 10; ++i) {
    UndoRecord* r = arena.Alloc(UndoKind::kUpdate, 1, i, "d");
    r->ets.store(100 + i, std::memory_order_relaxed);
    recs.push_back(r);
  }
  // Reclaim everything with ets < 105 (the first five).
  uint64_t last = 0;
  size_t n = arena.ReclaimWhile(
      [](const UndoRecord& r) { return r.ets.load() < 105; }, nullptr, &last);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(last, 104u);
  EXPECT_EQ(arena.live_count(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(recs[i]->IsLive(nullptr));
  for (int i = 5; i < 10; ++i) EXPECT_TRUE(recs[i]->IsLive(nullptr));
}

TEST(UndoArenaTest, RecyclingReusesMemory) {
  UndoArena arena;
  UndoRecord* a = arena.Alloc(UndoKind::kInsert, 1, 1, "x");
  a->ets.store(1, std::memory_order_relaxed);
  arena.ReclaimWhile([](const UndoRecord&) { return true; }, nullptr, nullptr);
  size_t bytes = arena.pooled_bytes();
  UndoRecord* b = arena.Alloc(UndoKind::kInsert, 1, 2, "y");
  EXPECT_EQ(a, b);  // same size class slot reused
  EXPECT_EQ(arena.pooled_bytes(), bytes);
  EXPECT_TRUE(b->IsLive(nullptr));
}

TEST(UndoArenaTest, FreeAbortedRemovesFromQueue) {
  UndoArena arena;
  UndoRecord* a = arena.Alloc(UndoKind::kUpdate, 1, 1, "a");
  UndoRecord* b = arena.Alloc(UndoKind::kUpdate, 1, 2, "b");
  arena.FreeAborted(b);
  EXPECT_FALSE(b->IsLive(nullptr));
  EXPECT_TRUE(a->IsLive(nullptr));
  EXPECT_EQ(arena.live_count(), 1u);
}

// --- Visibility: the paper's Figure 5 / Example 6.2 -----------------------------
//
// Base tuples (current values): rid1='a', rid2='b', rid3='c'.
// Chains (newest first):
//   rid1: {ets=XID7(active), sts=6, before='b'} -> {ets=6, sts=2, before='c'}
//   rid2: {ets=3, sts=1, before='a'}
//   rid3: {ets=6, sts=3, before='a'}
// Reader: XID3 with snapshot 5.
// Expected: rid1 -> 'c', rid2 -> 'b', rid3 -> 'a'.
class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = OneCol();
    xid7_ = MakeXid(7);
    xid3_ = MakeXid(3);

    // rid1 chain.
    r1_new_ = arena_.Alloc(UndoKind::kUpdate, 1, 1, DeltaTo(schema_, "b"));
    r1_old_ = arena_.Alloc(UndoKind::kUpdate, 1, 1, DeltaTo(schema_, "c"));
    r1_old_->sts.store(2, std::memory_order_relaxed);
    r1_old_->ets.store(6, std::memory_order_relaxed);
    r1_new_->sts.store(6, std::memory_order_relaxed);
    r1_new_->ets.store(xid7_, std::memory_order_relaxed);
    r1_new_->next.store(r1_old_, std::memory_order_relaxed);
    twin_.entry(1).head.store(r1_new_, std::memory_order_relaxed);

    // rid2 chain.
    r2_ = arena_.Alloc(UndoKind::kUpdate, 1, 2, DeltaTo(schema_, "a"));
    r2_->sts.store(1, std::memory_order_relaxed);
    r2_->ets.store(3, std::memory_order_relaxed);
    twin_.entry(2).head.store(r2_, std::memory_order_relaxed);

    // rid3 chain.
    r3_ = arena_.Alloc(UndoKind::kUpdate, 1, 3, DeltaTo(schema_, "a"));
    r3_->sts.store(3, std::memory_order_relaxed);
    r3_->ets.store(6, std::memory_order_relaxed);
    twin_.entry(3).head.store(r3_, std::memory_order_relaxed);
  }

  std::string ReadVisible(RowId rid, const std::string& base,
                          Timestamp snapshot, Xid xid) {
    // The returned slice may borrow base_row, so keep it alive past the call.
    std::string base_row = Row(schema_, base);
    VisibleVersion vv;
    Status st = RetrieveVisibleVersion(schema_, xid, snapshot, base_row,
                                       false,
                                       &twin_.entry(static_cast<uint16_t>(rid)),
                                       1, rid, &scratch_, txns_, &vv);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(vv.exists);
    return ValueOf(schema_, vv.row);
  }

  Schema schema_;
  UndoArena arena_;
  Arena scratch_;
  GlobalClock clock_;
  TxnManager txns_{2, &clock_};  // no XID of the example is active in it
  TwinTable twin_{16};
  Xid xid7_, xid3_;
  UndoRecord *r1_new_, *r1_old_, *r2_, *r3_;
};

TEST_F(PaperExampleTest, Example62) {
  // XID 3, snapshot = 5.
  EXPECT_EQ(ReadVisible(1, "a", 5, xid3_), "c");
  EXPECT_EQ(ReadVisible(2, "b", 5, xid3_), "b");
  EXPECT_EQ(ReadVisible(3, "c", 5, xid3_), "a");
}

TEST_F(PaperExampleTest, OwnWritesVisible) {
  // XID 7 sees its own (uncommitted) write on rid1: the base tuple 'a'.
  EXPECT_EQ(ReadVisible(1, "a", 7, xid7_), "a");
}

TEST_F(PaperExampleTest, LateSnapshotSeesCommitted) {
  // Snapshot 6 sees rid3's base ('c': committed at 6).
  EXPECT_EQ(ReadVisible(3, "c", 6, xid3_), "c");
  // But rid1's base is still invisible (writer XID7 active) -> 'b' (sts=6<=6).
  EXPECT_EQ(ReadVisible(1, "a", 6, xid3_), "b");
}

TEST_F(PaperExampleTest, ReclaimedHeadMeansBaseVisible) {
  // Reclaim rid2's record: the base tuple becomes visible (paper line 3-4).
  r2_->stamp.fetch_add(1);  // mark dead
  EXPECT_EQ(ReadVisible(2, "b", 2, xid3_), "b");
}

TEST_F(PaperExampleTest, NullChainMeansBaseVisible) {
  TwinTable::Entry empty;
  std::string base = Row(schema_, "z");
  VisibleVersion vv;
  ASSERT_OK(RetrieveVisibleVersion(schema_, xid3_, 1, base, false, &empty, 1,
                                   9, &scratch_, txns_, &vv));
  EXPECT_TRUE(vv.exists);
  EXPECT_FALSE(vv.assembled);  // borrowed, not assembled in the arena
  EXPECT_EQ(vv.row.data(), base.data());
  EXPECT_EQ(ValueOf(schema_, vv.row), "z");
  // And with no twin table at all (line 1-2).
  ASSERT_OK(RetrieveVisibleVersion(schema_, xid3_, 1, base, false, nullptr, 1,
                                   9, &scratch_, txns_, &vv));
  EXPECT_TRUE(vv.exists);
}

TEST_F(PaperExampleTest, DeleteAndInsertKinds) {
  // Insert record (uncommitted other txn): reader resolves to non-existent.
  UndoRecord* ins = arena_.Alloc(UndoKind::kInsert, 1, 5, Slice());
  ins->sts.store(0, std::memory_order_relaxed);
  ins->ets.store(xid7_, std::memory_order_relaxed);
  twin_.entry(5).head.store(ins, std::memory_order_relaxed);
  std::string base_n = Row(schema_, "n");
  VisibleVersion vv;
  ASSERT_OK(RetrieveVisibleVersion(schema_, xid3_, 5, base_n, false,
                                   &twin_.entry(5), 1, 5, &scratch_, txns_,
                                   &vv));
  EXPECT_FALSE(vv.exists);

  // Delete record (uncommitted): older reader still sees the row.
  UndoRecord* del = arena_.Alloc(UndoKind::kDelete, 1, 6, Slice());
  del->sts.store(2, std::memory_order_relaxed);
  del->ets.store(xid7_, std::memory_order_relaxed);
  twin_.entry(6).head.store(del, std::memory_order_relaxed);
  std::string base_d = Row(schema_, "d");
  ASSERT_OK(RetrieveVisibleVersion(schema_, xid3_, 5, base_d,
                                   /*base_deleted=*/true, &twin_.entry(6), 1,
                                   6, &scratch_, txns_, &vv));
  EXPECT_TRUE(vv.exists);
  EXPECT_EQ(ValueOf(schema_, vv.row), "d");
}

// --- Write conflicts ---------------------------------------------------------------

TEST(WriteConflictTest, Rules) {
  Schema s = OneCol();
  UndoArena arena;
  TwinTable twin(4);
  Xid me = MakeXid(10), other = MakeXid(11);

  // Empty chain: proceed.
  EXPECT_OK(CheckWriteConflict(me, 10, IsolationLevel::kReadCommitted,
                               &twin.entry(0), 1, 0));

  // Active other writer: blocked on its XID.
  UndoRecord* rec = arena.Alloc(UndoKind::kUpdate, 1, 0, DeltaTo(s, "x"));
  rec->ets.store(other, std::memory_order_relaxed);
  twin.entry(0).head.store(rec, std::memory_order_relaxed);
  Status st = CheckWriteConflict(me, 10, IsolationLevel::kReadCommitted,
                                 &twin.entry(0), 1, 0);
  EXPECT_TRUE(st.IsBlocked());
  EXPECT_EQ(st.wait_xid(), other);

  // Our own write: proceed.
  rec->ets.store(me, std::memory_order_relaxed);
  EXPECT_OK(CheckWriteConflict(me, 10, IsolationLevel::kRepeatableRead,
                               &twin.entry(0), 1, 0));

  // Committed after my snapshot: RC proceeds, RR aborts.
  rec->ets.store(15, std::memory_order_relaxed);
  EXPECT_OK(CheckWriteConflict(me, 10, IsolationLevel::kReadCommitted,
                               &twin.entry(0), 1, 0));
  EXPECT_TRUE(CheckWriteConflict(me, 10, IsolationLevel::kRepeatableRead,
                                 &twin.entry(0), 1, 0)
                  .IsAborted());
  // Committed before my snapshot: both proceed.
  rec->ets.store(9, std::memory_order_relaxed);
  EXPECT_OK(CheckWriteConflict(me, 10, IsolationLevel::kRepeatableRead,
                               &twin.entry(0), 1, 0));
}

// --- TxnManager -----------------------------------------------------------------

TEST(TxnManagerTest, BeginCommitLifecycle) {
  GlobalClock clock;
  TxnManager tm(4, &clock);
  Transaction* txn = tm.Begin(0, IsolationLevel::kReadCommitted);
  EXPECT_TRUE(IsXid(txn->xid()));
  EXPECT_TRUE(tm.IsXidActive(txn->xid()));
  EXPECT_EQ(txn->state(), TxnState::kActive);

  Timestamp snap_before = txn->snapshot();
  clock.Next();
  tm.RefreshStatementSnapshot(txn);
  EXPECT_GT(txn->snapshot(), snap_before);

  UndoRecord* rec = tm.slot(0).arena.Alloc(UndoKind::kUpdate, 1, 1, "d");
  rec->ets.store(txn->xid(), std::memory_order_relaxed);
  txn->PushUndo(rec);

  Timestamp cts = tm.PrepareCommit(txn);
  EXPECT_EQ(rec->ets.load(), cts);  // single-scan ets update
  tm.FinishTransaction(txn, true);
  EXPECT_FALSE(tm.IsXidActive(txn->xid()));
}

// A writer that has taken its commit timestamp but not yet stamped its ets
// is committed for every snapshot at or above that timestamp: reading the
// head before and after the stamp must give the same version.
TEST(TxnManagerTest, CommitBeforeStampVisibleToLaterSnapshot) {
  GlobalClock clock;
  TxnManager tm(2, &clock);
  Schema schema = OneCol();
  Transaction* w = tm.Begin(0, IsolationLevel::kReadCommitted);
  EXPECT_EQ(tm.CommitTsOf(w->xid()), std::optional<Timestamp>(0));

  // The head the writer installed; kept off its UNDO list so PrepareCommit
  // leaves it unstamped, as a commit still between the clock and the stamp.
  UndoRecord* head = tm.slot(0).arena.Alloc(UndoKind::kUpdate, 1, 1,
                                            DeltaTo(schema, "old"));
  head->sts.store(1, std::memory_order_relaxed);
  head->ets.store(w->xid(), std::memory_order_relaxed);
  TwinTable::Entry entry;
  entry.head.store(head, std::memory_order_relaxed);
  std::string base = Row(schema, "new");
  Arena scratch;
  auto read = [&](Timestamp snapshot, VisibleVersion* vv) {
    ASSERT_OK(RetrieveVisibleVersion(schema, MakeXid(1000), snapshot, base,
                                     false, &entry, 1, 1, &scratch, tm, vv));
  };

  Timestamp early = clock.Current();
  VisibleVersion vv;
  read(early, &vv);  // not committing: the before image
  EXPECT_EQ(ValueOf(schema, vv.row), "old");

  Timestamp cts = tm.PrepareCommit(w);
  EXPECT_EQ(tm.CommitTsOf(w->xid()), std::optional<Timestamp>(cts));
  Timestamp late = clock.Next();
  read(late, &vv);
  EXPECT_EQ(ValueOf(schema, vv.row), "new");
  EXPECT_EQ(vv.cts, cts);  // the observed-commit check waits for it
  read(early, &vv);  // the commit is after this snapshot
  EXPECT_EQ(ValueOf(schema, vv.row), "old");

  tm.FinishTransaction(w, true);
  EXPECT_FALSE(tm.CommitTsOf(w->xid()).has_value());
}

TEST(TxnManagerTest, RepeatableReadKeepsSnapshot) {
  GlobalClock clock;
  TxnManager tm(2, &clock);
  Transaction* txn = tm.Begin(0, IsolationLevel::kRepeatableRead);
  Timestamp snap = txn->snapshot();
  clock.Next();
  tm.RefreshStatementSnapshot(txn);
  EXPECT_EQ(txn->snapshot(), snap);
  tm.FinishTransaction(txn, false);
}

TEST(TxnManagerTest, MinActiveWatermark) {
  GlobalClock clock;
  TxnManager tm(4, &clock);
  // No active transactions: watermark tracks the clock.
  Timestamp w0 = tm.MinActiveStartTs();
  EXPECT_GE(w0, clock.Current());

  Transaction* t1 = tm.Begin(0, IsolationLevel::kReadCommitted);
  clock.Next();
  clock.Next();
  Transaction* t2 = tm.Begin(1, IsolationLevel::kReadCommitted);
  EXPECT_EQ(tm.MinActiveStartTs(), t1->start_ts());
  tm.FinishTransaction(t1, true);
  EXPECT_EQ(tm.MinActiveStartTs(), t2->start_ts());
  tm.FinishTransaction(t2, true);
  EXPECT_GT(tm.MinActiveStartTs(), t2->start_ts());
}

TEST(TxnManagerTest, UndoGcRespectsActiveTransactions) {
  GlobalClock clock;
  TxnManager tm(4, &clock);

  // Committed txn with one undo record; a long-running reader begins BEFORE
  // the commit, so its snapshot may still need the before-image.
  Transaction* t1 = tm.Begin(0, IsolationLevel::kReadCommitted);
  UndoRecord* rec = tm.slot(0).arena.Alloc(UndoKind::kUpdate, 1, 1, "d");
  rec->ets.store(t1->xid(), std::memory_order_relaxed);
  t1->PushUndo(rec);
  Transaction* old_reader = tm.Begin(1, IsolationLevel::kRepeatableRead);
  tm.PrepareCommit(t1);
  tm.FinishTransaction(t1, true);

  // cts > old_reader's start ts -> the record must be kept.
  EXPECT_EQ(tm.RunUndoGc(0), 0u);
  EXPECT_TRUE(rec->IsLive(nullptr));

  tm.FinishTransaction(old_reader, true);
  EXPECT_EQ(tm.RunUndoGc(0), 1u);
  EXPECT_FALSE(rec->IsLive(nullptr));
}

TEST(TxnManagerTest, ActiveTxnUndoNeverReclaimed) {
  GlobalClock clock;
  TxnManager tm(2, &clock);
  Transaction* t = tm.Begin(0, IsolationLevel::kReadCommitted);
  UndoRecord* rec = tm.slot(0).arena.Alloc(UndoKind::kUpdate, 1, 1, "d");
  rec->ets.store(t->xid(), std::memory_order_relaxed);
  t->PushUndo(rec);
  EXPECT_EQ(tm.RunUndoGc(0), 0u);  // ets is an XID: not eligible
  tm.PrepareCommit(t);
  tm.FinishTransaction(t, true);
  EXPECT_EQ(tm.RunUndoGc(0), 1u);
}

TEST(TxnManagerTest, WaitForXidWakesOnFinish) {
  GlobalClock clock;
  TxnManager tm(2, &clock);
  Transaction* t = tm.Begin(0, IsolationLevel::kReadCommitted);
  Xid xid = t->xid();
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    tm.WaitForXid(xid);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());
  tm.FinishTransaction(t, true);
  waiter.join();
  EXPECT_TRUE(woke.load());
  // Waiting on a finished xid returns immediately.
  tm.WaitForXid(xid);
}

TEST(TxnManagerTest, OnFinishHookFires) {
  GlobalClock clock;
  TxnManager tm(2, &clock);
  Xid finished = 0;
  tm.set_on_finish([&finished](Xid x) { finished = x; });
  Transaction* t = tm.Begin(0, IsolationLevel::kReadCommitted);
  Xid xid = t->xid();
  tm.FinishTransaction(t, false);
  EXPECT_EQ(finished, xid);
}

}  // namespace
}  // namespace phoebe
