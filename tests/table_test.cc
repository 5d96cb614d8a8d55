// Table-layer tests: index maintenance with MVCC visibility, isolation
// levels, atomic RMW updates, GC purging, temperature exchange, key
// encoding order.
#include "core/table.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <tuple>

#include "core/database.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema ItemSchema() {
  return Schema({
      {"sku", ColumnType::kInt64, 0, false},
      {"name", ColumnType::kString, 24, false},
      {"qty", ColumnType::kInt32, 0, false},
  });
}

class TableTest : public ::testing::Test {
 protected:
  void Open(DatabaseOptions opts = {}) {
    dir_ = std::make_unique<TestDir>("table");
    opts.path = dir_->path();
    opts.workers = 2;
    opts.slots_per_worker = 4;
    opts.buffer_bytes = 32ull << 20;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
    table_ = db_->CreateTable("items", ItemSchema()).value();
    ASSERT_OK(db_->CreateIndex("items", "sku_pk", {0}, true));
    ASSERT_OK(db_->CreateIndex("items", "by_name", {1}, false));
    ctx_.synchronous = true;
  }

  RowId InsertItem(Transaction* txn, int64_t sku, const std::string& name,
                   int32_t qty) {
    RowBuilder b(&table_->schema());
    b.SetInt64(0, sku).SetString(1, name).SetInt32(2, qty);
    RowId rid = 0;
    Status st = table_->Insert(&ctx_, txn, b.Encode().value(), &rid);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return rid;
  }

  /// Inserts and commits `n` rows with skus first_sku.. and qty = i, then
  /// sweeps the twin tables so the leaves can be cooled or frozen.
  std::vector<RowId> InsertCommitted(int n, int64_t first_sku) {
    Transaction* txn = db_->Begin(db_->aux_slot(0));
    std::vector<RowId> rids;
    for (int i = 0; i < n; ++i) {
      rids.push_back(
          InsertItem(txn, first_sku + i, "n" + std::to_string(i), i));
    }
    EXPECT_OK(db_->Commit(&ctx_, txn));
    db_->DrainGc();
    return rids;
  }

  BufferFrame* LeafFrame(BTree* tree, const std::string& key) {
    LeafGuard g;
    EXPECT_OK(tree->FixLeaf(&ctx_, key, LatchMode::kShared, &g));
    return g.frame();
  }

  /// Cools and evicts frames of `frame`'s partition until `frame` has left
  /// the buffer.
  void Evict(BufferFrame* frame) {
    OpContext ectx;
    ectx.partition = frame->partition;
    for (int i = 0; i < 100000 && frame->state.load() != FrameState::kFree;
         ++i) {
      db_->registry()->CoolRandomFrames(&ectx, frame->partition, 8);
      db_->registry()->EvictCoolingBatch(&ectx, frame->partition, 8);
    }
    ASSERT_EQ(frame->state.load(), FrameState::kFree);
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  OpContext ctx_;
};

TEST_F(TableTest, UniqueIndexRejectsDuplicates) {
  Open();
  Transaction* t1 = db_->Begin(db_->aux_slot(0));
  InsertItem(t1, 42, "widget", 5);
  ASSERT_OK(db_->Commit(&ctx_, t1));

  Transaction* t2 = db_->Begin(db_->aux_slot(0));
  RowBuilder b(&table_->schema());
  b.SetInt64(0, 42).SetString(1, "dupe").SetInt32(2, 1);
  RowId rid = 0;
  Status st = table_->Insert(&ctx_, t2, b.Encode().value(), &rid);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  ASSERT_OK(db_->Abort(&ctx_, t2));

  // Original row is intact.
  Transaction* t3 = db_->Begin(db_->aux_slot(0));
  Slice row;
  ASSERT_OK(table_->IndexGetRef(&ctx_, t3, 0, {Value::Int64(42)}, &rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetString(1),
            Slice("widget"));
  ASSERT_OK(db_->Commit(&ctx_, t3));
}

TEST_F(TableTest, NonUniqueIndexScansDuplicateKeys) {
  Open();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  InsertItem(txn, 1, "same", 10);
  InsertItem(txn, 2, "same", 20);
  InsertItem(txn, 3, "other", 30);
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  std::vector<int64_t> skus;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 1, {Value::String("same")}, {},
                                 [&](RowId, Slice row) {
                                   skus.push_back(
                                       RowView(&table_->schema(), row.data())
                                           .GetInt64(0));
                                   return true;
                                 }));
  EXPECT_EQ(skus, (std::vector<int64_t>{1, 2}));
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, IndexScanFiltersInvisibleRows) {
  Open();
  Transaction* t1 = db_->Begin(db_->aux_slot(0));
  InsertItem(t1, 1, "aaa", 1);
  ASSERT_OK(db_->Commit(&ctx_, t1));

  // Uncommitted insert by another transaction: index entry exists, but the
  // row is invisible to a concurrent reader.
  Transaction* t2 = db_->Begin(db_->aux_slot(0));
  InsertItem(t2, 2, "aab", 2);

  Transaction* reader = db_->Begin(db_->aux_slot(1));
  int count = 0;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 0, {Value::Int64(0)},
                                 {Value::Int64(100)},
                                 [&](RowId, Slice) {
                                   ++count;
                                   return true;
                                 }));
  EXPECT_EQ(count, 1);
  ASSERT_OK(db_->Commit(&ctx_, t2));
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // After commit a fresh scan sees both.
  Transaction* reader2 = db_->Begin(db_->aux_slot(1));
  count = 0;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader2, 0, {Value::Int64(0)},
                                 {Value::Int64(100)},
                                 [&](RowId, Slice) {
                                   ++count;
                                   return true;
                                 }));
  EXPECT_EQ(count, 2);
  ASSERT_OK(db_->Commit(&ctx_, reader2));
}

/// The writes that lock an existing row, each run through the conflict
/// tests below; the second parameter turns on the baseline global lock
/// table, whose row lock comes before the XID wait.
enum class RowWrite { kUpdate, kDelete };

class TableWriteTest
    : public TableTest,
      public ::testing::WithParamInterface<std::tuple<RowWrite, bool>> {
 protected:
  void OpenFor(DatabaseOptions opts = {}) {
    opts.baseline_global_lock_table = std::get<1>(GetParam());
    Open(opts);
  }

  Status Write(OpContext* ctx, Transaction* txn, RowId rid, int32_t qty) {
    if (std::get<0>(GetParam()) == RowWrite::kDelete) {
      return table_->Delete(ctx, txn, rid);
    }
    return table_->Update(ctx, txn, rid, {{2, Value::Int32(qty)}});
  }
};

INSTANTIATE_TEST_SUITE_P(
    Writes, TableWriteTest,
    ::testing::Combine(::testing::Values(RowWrite::kUpdate, RowWrite::kDelete),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<RowWrite, bool>>& info) {
      return std::string(std::get<0>(info.param) == RowWrite::kUpdate
                             ? "Update"
                             : "Delete") +
             (std::get<1>(info.param) ? "BaselineLocks" : "");
    });

TEST_P(TableWriteTest, RepeatableReadFirstUpdaterWins) {
  OpenFor();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 7, "contended", 100);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* rr = db_->Begin(db_->aux_slot(0),
                               IsolationLevel::kRepeatableRead);
  // Make sure rr's snapshot predates the concurrent commit.
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, rr, rid, &row));

  Transaction* other = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->Update(&ctx_, other, rid, {{2, Value::Int32(1)}}));
  ASSERT_OK(db_->Commit(&ctx_, other));

  // RR transaction must abort on the stale write.
  Status st = Write(&ctx_, rr, rid, 2);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  ASSERT_OK(db_->Abort(&ctx_, rr));

  // Read-committed retries against the newest version instead.
  Transaction* rc = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(Write(&ctx_, rc, rid, 3));
  ASSERT_OK(db_->Commit(&ctx_, rc));
}

TEST_F(TableTest, RepeatableReadSnapshotStable) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 9, "stable", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* rr = db_->Begin(db_->aux_slot(0),
                               IsolationLevel::kRepeatableRead);
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, rr, rid, &row));
  int32_t before = RowView(&table_->schema(), row.data()).GetInt32(2);

  Transaction* writer = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->Update(&ctx_, writer, rid, {{2, Value::Int32(999)}}));
  ASSERT_OK(db_->Commit(&ctx_, writer));

  // Same snapshot, same value — even after a refresh attempt.
  db_->StatementBegin(rr);
  ASSERT_OK(table_->GetRef(&ctx_, rr, rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), before);
  ASSERT_OK(db_->Commit(&ctx_, rr));

  // RC sees the new value immediately.
  Transaction* rc = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->GetRef(&ctx_, rc, rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), 999);
  ASSERT_OK(db_->Commit(&ctx_, rc));
}

TEST_F(TableTest, ConcurrentIncrementsAreAtomic) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 5, "counter", 0);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OpContext ctx;
      ctx.synchronous = true;
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          Transaction* txn = db_->Begin(db_->aux_slot(t));
          Status st = table_->UpdateApply(
              &ctx, txn, rid,
              [](RowView cur,
                 std::vector<std::pair<uint32_t, Value>>* sets) {
                sets->push_back({2, Value::Int32(cur.GetInt32(2) + 1)});
                return Status::OK();
              });
          if (st.ok()) {
            st = db_->Commit(&ctx, txn);
            if (st.ok()) break;
          } else {
            (void)db_->Abort(&ctx, txn);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rid, &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2),
            kThreads * kIncrements);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, KeyChangingUpdateMovesIndexEntry) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 10, "oldname", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* txn = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(
      table_->Update(&ctx_, txn, rid, {{1, Value::String("newname")}}));
  ASSERT_OK(db_->Commit(&ctx_, txn));
  db_->DrainGc();  // reclaim triggers stale-entry cleanup

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  int old_hits = 0, new_hits = 0;
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 1, {Value::String("oldname")},
                                 {}, [&](RowId, Slice) {
                                   ++old_hits;
                                   return true;
                                 }));
  ASSERT_OK(table_->IndexScanRef(&ctx_, reader, 1, {Value::String("newname")},
                                 {}, [&](RowId, Slice) {
                                   ++new_hits;
                                   return true;
                                 }));
  EXPECT_EQ(old_hits, 0);
  EXPECT_EQ(new_hits, 1);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, GcPurgesDeletedTuplesAndIndexEntries) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 11, "doomed", 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* deleter = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Delete(&ctx_, deleter, rid));
  ASSERT_OK(db_->Commit(&ctx_, deleter));
  db_->DrainGc();

  // Physical purge removed the row and its index entries (direct index
  // lookup finds nothing, not even a dangling rid).
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  RowId found = 0;
  Slice row;
  EXPECT_TRUE(
      table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(11)}, &found, &row)
          .IsNotFound());
  EXPECT_TRUE(table_->GetRef(&ctx_, reader, rid, &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // The sku is insertable again after the purge.
  Transaction* again = db_->Begin(db_->aux_slot(0));
  InsertItem(again, 11, "reborn", 2);
  ASSERT_OK(db_->Commit(&ctx_, again));
}

TEST_P(TableWriteTest, DeadlockTimeoutAbortsOneParty) {
  DatabaseOptions opts;
  opts.deadlock_timeout_ms = 100;
  OpenFor(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId a = InsertItem(setup, 1, "a", 0);
  RowId b = InsertItem(setup, 2, "b", 0);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  // t1: lock a then b; t2: lock b then a — a guaranteed cycle.
  std::atomic<int> aborted{0};
  auto worker = [&](uint32_t slot, RowId first, RowId second) {
    OpContext ctx;
    ctx.synchronous = true;
    Transaction* txn = db_->Begin(db_->aux_slot(slot));
    Status st = Write(&ctx, txn, first, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (st.ok()) st = Write(&ctx, txn, second, 2);
    if (st.ok()) {
      EXPECT_OK(db_->Commit(&ctx, txn));
    } else {
      EXPECT_TRUE(st.IsAborted()) << st.ToString();
      aborted.fetch_add(1);
      (void)db_->Abort(&ctx, txn);
    }
  };
  std::thread t1(worker, 0, a, b);
  std::thread t2(worker, 1, b, a);
  t1.join();
  t2.join();
  EXPECT_GE(aborted.load(), 1);
  EXPECT_LE(aborted.load(), 2);
}

TEST_F(TableTest, FreezeThenReadAndScan) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;  // everything freezable
  opts.freeze_epoch_age = 0;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  const int kRows = 1500;
  std::vector<RowId> rids;
  for (int i = 0; i < kRows; ++i) {
    rids.push_back(InsertItem(setup, 1000 + i, "r" + std::to_string(i), i));
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();

  OpContext fctx;
  fctx.synchronous = true;
  auto frozen = table_->FreezePass(&fctx, 100);
  ASSERT_OK(frozen.status());
  EXPECT_GT(frozen.value(), 0);
  EXPECT_GT(table_->frozen()->max_frozen_row_id(), 0u);

  // Frozen rows still readable by rid, by index, and by full scan.
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rids[10], &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), 1010);
  RowId found = 0;
  ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(1010)}, &found,
                                   &row));
  EXPECT_EQ(found, rids[10]);
  int seen = 0;
  ASSERT_OK(table_->ScanAllVisible(&ctx_, reader,
                                   [&seen](RowId, Slice) {
                                     ++seen;
                                     return true;
                                   }));
  EXPECT_EQ(seen, kRows);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, FrozenUpdateWarmsRow) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  std::vector<RowId> rids;
  for (int i = 0; i < 1500; ++i) {
    rids.push_back(InsertItem(setup, 2000 + i, "f" + std::to_string(i), i));
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  OpContext fctx;
  fctx.synchronous = true;
  ASSERT_OK(table_->FreezePass(&fctx, 100).status());
  ASSERT_GT(table_->frozen()->max_frozen_row_id(), rids[5]);

  // Update a frozen row: warmed to a fresh rid; index follows.
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, txn, rids[5], {{2, Value::Int32(777)}}));
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  RowId new_rid = 0;
  Slice row;
  ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(2005)},
                                &new_rid, &row));
  EXPECT_NE(new_rid, rids[5]);
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), 777);
  EXPECT_TRUE(table_->GetRef(&ctx_, reader, rids[5], &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // Delete of a frozen row tombstones it.
  Transaction* deleter = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Delete(&ctx_, deleter, rids[6]));
  ASSERT_OK(db_->Commit(&ctx_, deleter));
  Transaction* reader2 = db_->Begin(db_->aux_slot(0));
  EXPECT_TRUE(table_->GetRef(&ctx_, reader2, rids[6], &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader2));
}

TEST_F(TableTest, ColumnScanMatchesRowScan) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  int64_t expected_sum = 0;
  for (int i = 0; i < 1200; ++i) {
    InsertItem(setup, 5000 + i, "c" + std::to_string(i), i);
    expected_sum += i;
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  // Freeze part of the table so the scan crosses both tiers.
  OpContext fctx;
  fctx.synchronous = true;
  ASSERT_OK(table_->FreezePass(&fctx, 3).status());
  ASSERT_GT(table_->frozen()->num_blocks(), 0u);

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  int64_t col_sum = 0;
  int col_rows = 0;
  ASSERT_OK(table_->ScanColumnInt64(&ctx_, reader, 2,
                                    [&](RowId, int64_t v) {
                                      col_sum += v;
                                      ++col_rows;
                                      return true;
                                    }));
  EXPECT_EQ(col_sum, expected_sum);
  EXPECT_EQ(col_rows, 1200);

  // Cross-check against the row scan.
  int64_t row_sum = 0;
  ASSERT_OK(table_->ScanAllVisible(&ctx_, reader,
                                   [&](RowId, Slice row) {
                                     row_sum += RowView(&table_->schema(),
                                                        row.data())
                                                    .GetInt32(2);
                                     return true;
                                   }));
  EXPECT_EQ(row_sum, expected_sum);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, ColumnScanSkipsUncommittedViaChainFallback) {
  Open();
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = InsertItem(setup, 77, "base", 10);
  InsertItem(setup, 78, "other", 20);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  // Uncommitted in-place update: the direct PAX value is 999, but scans
  // must surface the committed version (10).
  Transaction* writer = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->Update(&ctx_, writer, rid, {{2, Value::Int32(999)}}));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  int64_t sum = 0;
  ASSERT_OK(table_->ScanColumnInt64(&ctx_, reader, 2,
                                    [&](RowId, int64_t v) {
                                      sum += v;
                                      return true;
                                    }));
  EXPECT_EQ(sum, 30);
  ASSERT_OK(db_->Commit(&ctx_, reader));
  ASSERT_OK(db_->Abort(&ctx_, writer));
}

TEST_F(TableTest, ColumnScanRejectsWrongTypes) {
  Open();
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  EXPECT_TRUE(table_->ScanColumnInt64(&ctx_, txn, 1, nullptr)
                  .IsInvalidArgument());  // string column
  EXPECT_TRUE(table_->ScanColumnDouble(&ctx_, txn, 2, nullptr)
                  .IsInvalidArgument());  // int column
  EXPECT_TRUE(table_->ScanColumnInt64(&ctx_, txn, 99, nullptr)
                  .IsInvalidArgument());
  ASSERT_OK(db_->Commit(&ctx_, txn));
}

TEST_F(TableTest, WarmPassRevivesHotFrozenRows) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  opts.warm_read_threshold = 8;
  Open(opts);
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  std::vector<RowId> rids;
  for (int i = 0; i < 1200; ++i) {
    rids.push_back(InsertItem(setup, 4000 + i, "w" + std::to_string(i), i));
  }
  ASSERT_OK(db_->Commit(&ctx_, setup));
  db_->DrainGc();
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  OpContext fctx;
  fctx.synchronous = true;
  ASSERT_OK(table_->FreezePass(&fctx, 100).status());
  RowId watermark = table_->frozen()->max_frozen_row_id();
  ASSERT_GT(watermark, rids[0]);

  // Hammer reads on one frozen row's block past the warm threshold.
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(table_->GetRef(&ctx_, reader, rids[3], &row));
  }
  ASSERT_OK(db_->Commit(&ctx_, reader));

  // Warm pass moves the hot block's rows back into the tree.
  Transaction* maint = db_->Begin(db_->aux_slot(1));
  ASSERT_OK(table_->WarmPass(&fctx, maint, 1024));
  ASSERT_OK(db_->Commit(&ctx_, maint));
  db_->DrainGc();

  // The warmed row lives at a fresh rid above the watermark, reachable via
  // its index, with the frozen copy tombstoned.
  Transaction* verify = db_->Begin(db_->aux_slot(0));
  RowId new_rid = 0;
  ASSERT_OK(table_->IndexGetRef(&ctx_, verify, 0, {Value::Int64(4003)},
                                &new_rid, &row));
  EXPECT_GT(new_rid, watermark);
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt32(2), 3);
  EXPECT_TRUE(table_->GetRef(&ctx_, verify, rids[3], &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, verify));
}

// --- Projected reads ------------------------------------------------------------

TEST_F(TableTest, ProjectedReadsMatchFullReads) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  Open(opts);
  std::vector<RowId> rids = InsertCommitted(1500, 5000);
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  OpContext fctx;
  ASSERT_EQ(table_->FreezePass(&fctx, 1).value(), 1);
  ASSERT_GE(table_->frozen()->max_frozen_row_id(), rids[3]);

  // An older snapshot, then an update of one listed (qty) and one unlisted
  // (name) column: the old reader's version is rebuilt from UNDO.
  Transaction* old_reader =
      db_->Begin(db_->aux_slot(1), IsolationLevel::kRepeatableRead);
  Transaction* writer = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, writer, rids[1200],
                           {{1, Value::String("renamed")},
                            {2, Value::Int32(-7)}}));
  ASSERT_OK(db_->Commit(&ctx_, writer));
  Transaction* new_reader = db_->Begin(db_->aux_slot(2));

  constexpr ColumnSet kCols = ColumnBit(0) | ColumnBit(2);  // sku, qty
  const Schema& schema = table_->schema();
  auto check = [&](Transaction* txn, int i, int32_t want_qty,
                   bool from_page) {
    SCOPED_TRACE("row " + std::to_string(i));
    const RowId rid = rids[i];
    const int64_t sku = 5000 + i;
    Slice full;
    Slice projected;
    ASSERT_OK(table_->GetRef(&ctx_, txn, rid, &full));
    ASSERT_OK(table_->GetRef(&ctx_, txn, rid, &projected, kCols));
    RowId found = 0;
    Slice by_index;
    ASSERT_OK(table_->IndexGetRef(&ctx_, txn, 0, {Value::Int64(sku)}, &found,
                                  &by_index, kCols));
    EXPECT_EQ(found, rid);
    Slice by_scan;
    ASSERT_OK(table_->IndexScanRef(
        &ctx_, txn, 0, {Value::Int64(sku)}, {Value::Int64(sku + 1)},
        [&by_scan](RowId, Slice row) {
          by_scan = row;
          return true;
        },
        kCols));
    RowView f(&schema, full.data());
    EXPECT_EQ(f.GetInt64(0), sku);
    EXPECT_EQ(f.GetInt32(2), want_qty);
    for (Slice row : {projected, by_index, by_scan}) {
      ASSERT_FALSE(row.empty());
      RowView p(&schema, row.data());
      EXPECT_EQ(p.GetInt64(0), f.GetInt64(0));
      EXPECT_EQ(p.GetInt32(2), f.GetInt32(2));
      if (from_page) EXPECT_TRUE(p.IsNull(1)) << "unlisted column read";
    }
  };
  check(new_reader, 1000, 1000, /*from_page=*/true);   // base row
  check(new_reader, 1200, -7, /*from_page=*/false);    // the update
  check(old_reader, 1200, 1200, /*from_page=*/false);  // rebuilt from UNDO
  check(new_reader, 3, 3, /*from_page=*/false);        // frozen row
  ASSERT_OK(db_->Commit(&ctx_, old_reader));
  ASSERT_OK(db_->Commit(&ctx_, new_reader));
}

// --- Leaf re-access (DESIGN.md 4h) ------------------------------------------------
// A transaction reads key A, another context changes A's leaf, and the
// transaction then reads key B of A's old range.

TEST_F(TableTest, LeafReaccessAfterIndexSplit) {
  Open();
  for (int i = 0; i < 50; ++i) InsertCommitted(1, i * 1000);
  BTree* pk = table_->index(0).tree.get();
  ASSERT_EQ(pk->Height(&ctx_), 1);

  Transaction* reader = db_->Begin(db_->aux_slot(1));
  RowId rid = 0;
  Slice row;
  ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(0)}, &rid,
                                &row));
  Transaction* writer = db_->Begin(db_->aux_slot(0));
  for (int i = 0; i < 20000; ++i) {
    if (i % 1000 != 0) InsertItem(writer, i, "w", 0);
  }
  ASSERT_OK(db_->Commit(&ctx_, writer));
  ASSERT_GT(pk->Height(&ctx_), 1);  // the root leaf split

  for (int64_t sku : {1000, 19000, 49000}) {
    ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(sku)},
                                  &rid, &row));
    EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), sku);
  }
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, LeafReaccessAfterIndexMerge) {
  Open();
  InsertCommitted(1, 0);
  InsertCommitted(1, 100000);
  InsertCommitted(1, 100001);
  // Uncommitted inserts split the index into many leaves; their rollback
  // removes the entries again and merges the underfull leaves.
  Transaction* writer = db_->Begin(db_->aux_slot(0));
  for (int i = 1; i < 20000; ++i) InsertItem(writer, i, "w", 0);
  BTree* pk = table_->index(0).tree.get();
  const std::string key = Table::EncodeKey(table_->schema(), {0},
                                           {Value::Int64(100000)},
                                           db_->ScratchArena(writer))
                              .value()
                              .ToString();
  BufferFrame* before = LeafFrame(pk, key);

  Transaction* reader = db_->Begin(db_->aux_slot(1));
  RowId rid = 0;
  Slice row;
  ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(100000)},
                                &rid, &row));
  ASSERT_OK(db_->Abort(&ctx_, writer));
  ASSERT_NE(LeafFrame(pk, key), before);  // A's leaf was merged away

  for (int64_t sku : {100001, 0}) {
    ASSERT_OK(table_->IndexGetRef(&ctx_, reader, 0, {Value::Int64(sku)},
                                  &rid, &row));
    EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), sku);
  }
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, LeafReaccessAfterCoolingAndEviction) {
  Open();
  std::vector<RowId> rids = InsertCommitted(1500, 0);
  Transaction* reader = db_->Begin(db_->aux_slot(1));
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rids[10], &row));
  Evict(LeafFrame(table_->tree(), BTree::TableKey(rids[10])));
  const uint64_t loads = db_->pool()->stats().loads.load();

  ASSERT_OK(table_->GetRef(&ctx_, reader, rids[20], &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), 20);
  EXPECT_GT(db_->pool()->stats().loads.load(), loads);  // read back
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TableTest, LeafReaccessAfterFreezeDetach) {
  DatabaseOptions opts;
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  Open(opts);
  std::vector<RowId> rids = InsertCommitted(1500, 0);
  for (int i = 0; i < 4; ++i) db_->pool()->AdvanceEpoch();
  Transaction* reader = db_->Begin(db_->aux_slot(1));
  Slice row;
  ASSERT_OK(table_->GetRef(&ctx_, reader, rids[10], &row));
  OpContext fctx;
  ASSERT_EQ(table_->FreezePass(&fctx, 1).value(), 1);
  ASSERT_GE(table_->frozen()->max_frozen_row_id(), rids[20]);

  ASSERT_OK(table_->GetRef(&ctx_, reader, rids[20], &row));
  EXPECT_EQ(RowView(&table_->schema(), row.data()).GetInt64(0), 20);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

// --- Index scans resume without replaying rows --------------------------------------

TEST_F(TableTest, CoroutineIndexScanDeliversEachRowOnceAcrossEvictedLeaf) {
  Open();
  std::vector<RowId> rids = InsertCommitted(1000, 0);
  BufferFrame* first = LeafFrame(table_->tree(), BTree::TableKey(rids[0]));
  BufferFrame* last = LeafFrame(table_->tree(), BTree::TableKey(rids[999]));
  ASSERT_NE(first, last);  // the rows span more than one table leaf

  OpContext co;
  co.synchronous = false;
  Transaction* reader = db_->Begin(db_->aux_slot(1));
  // Re-runs the scan after every kBlocked, as PHOEBE_CO_AWAIT does.
  auto scan = [&](int64_t lo, int64_t hi, int* blocked) {
    std::map<RowId, int> seen;
    Status st;
    for (;;) {
      st = table_->IndexScanRef(&co, reader, 0, {Value::Int64(lo)},
                                {Value::Int64(hi)}, [&seen](RowId rid, Slice) {
                                  ++seen[rid];
                                  return true;
                                });
      if (!st.IsBlocked()) break;
      ++*blocked;
      while (co.load.active && !co.load.req.done()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    EXPECT_OK(st);
    return seen;
  };

  // Starts in a resident leaf, then reaches the evicted one.
  Evict(last);
  int blocked = 0;
  std::map<RowId, int> seen = scan(0, 1000, &blocked);
  EXPECT_EQ(seen.size(), 1000u);
  for (const auto& [rid, n] : seen) EXPECT_EQ(n, 1) << "row " << rid;

  // Starts in the evicted leaf: blocks before delivering anything.
  Evict(LeafFrame(table_->tree(), BTree::TableKey(rids[999])));
  blocked = 0;
  seen = scan(990, 1000, &blocked);
  EXPECT_GT(blocked, 0);
  EXPECT_EQ(seen.size(), 10u);
  for (const auto& [rid, n] : seen) EXPECT_EQ(n, 1) << "row " << rid;
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

// --- Key encoding properties ----------------------------------------------------

TEST(KeyEncodingTest, IntOrderPreserved) {
  Schema s({{"k", ColumnType::kInt64, 0, false}});
  Random rng(17);
  Arena arena;
  for (int i = 0; i < 2000; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next());
    int64_t b = static_cast<int64_t>(rng.Next());
    auto ka = Table::EncodeKey(s, {0}, {Value::Int64(a)}, &arena);
    auto kb = Table::EncodeKey(s, {0}, {Value::Int64(b)}, &arena);
    ASSERT_OK_R(ka);
    ASSERT_OK_R(kb);
    ASSERT_EQ(a < b, ka.value().compare(kb.value()) < 0) << a << " vs " << b;
    arena.Reset();
  }
}

TEST(KeyEncodingTest, CompositeStringOrdering) {
  Schema s({{"w", ColumnType::kInt32, 0, false},
            {"last", ColumnType::kString, 16, false}});
  Arena arena;
  auto k1 = Table::EncodeKey(s, {0, 1},
                             {Value::Int32(1), Value::String("ABLE")}, &arena);
  auto k2 = Table::EncodeKey(s, {0, 1},
                             {Value::Int32(1), Value::String("BAR")}, &arena);
  auto k3 = Table::EncodeKey(s, {0, 1},
                             {Value::Int32(2), Value::String("AAA")}, &arena);
  ASSERT_OK_R(k1);
  EXPECT_LT(k1.value().compare(k2.value()), 0);
  EXPECT_LT(k2.value().compare(k3.value()), 0);
  // Shorter string that is a prefix sorts first.
  auto p1 = Table::EncodeKey(s, {0, 1},
                             {Value::Int32(1), Value::String("AB")}, &arena);
  EXPECT_LT(p1.value().compare(k1.value()), 0);
  // A one-value prefix encodes the first key column only and sorts before
  // every full key that extends it.
  auto w1 = Table::EncodeKey(s, {0, 1}, {Value::Int32(1)}, &arena);
  ASSERT_OK_R(w1);
  EXPECT_EQ(w1.value().size(), 8u);
  EXPECT_TRUE(p1.value().starts_with(w1.value()));
  EXPECT_FALSE(Table::EncodeKey(s, {0}, {Value::Int32(1), Value::Int32(2)},
                                &arena)
                   .ok());
}

std::string Successor(std::string key) {
  key.resize(Table::PrefixSuccessor(key.data(), key.size()));
  return key;
}

TEST(KeyEncodingTest, PrefixSuccessor) {
  EXPECT_EQ(Successor("abc"), "abd");
  EXPECT_EQ(Successor(std::string("a") + '\xff'), "b");
  EXPECT_EQ(Successor(std::string(2, '\xff')), "");
  EXPECT_EQ(Successor(""), "");
}

}  // namespace
}  // namespace phoebe
