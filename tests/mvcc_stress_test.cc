// MVCC stress: concurrent readers and writers over a shared table with GC
// running, verifying snapshot-consistency invariants that must hold under
// every interleaving.
#include <gtest/gtest.h>

#include <thread>

#include "core/database.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

// Each row holds (k, a, b) with the writer-maintained invariant a == b.
// Snapshot reads must never observe a != b, no matter how reads interleave
// with in-place updates, UNDO chain growth, and queue-order reclamation.
class MvccStressTest : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(MvccStressTest, ReadersNeverSeeTornInvariant) {
  TestDir dir("mvcc_stress");
  DatabaseOptions opts;
  opts.path = dir.path();
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 32ull << 20;
  opts.aux_slots = 12;
  auto db_r = Database::Open(opts);
  ASSERT_OK_R(db_r);
  Database* db = db_r.value().get();

  Schema schema({{"k", ColumnType::kInt64, 0, false},
                 {"a", ColumnType::kInt64, 0, false},
                 {"b", ColumnType::kInt64, 0, false}});
  Table* table = db->CreateTable("inv", schema).value();

  constexpr int kRows = 16;
  std::vector<RowId> rids;
  {
    OpContext ctx;
    ctx.synchronous = true;
    Transaction* txn = db->Begin(db->aux_slot(0));
    for (int i = 0; i < kRows; ++i) {
      RowBuilder b(&table->schema());
      b.SetInt64(0, i).SetInt64(1, 0).SetInt64(2, 0);
      RowId rid = 0;
      ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid));
      rids.push_back(rid);
    }
    ASSERT_OK(db->Commit(&ctx, txn));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> violations{0};

  // Writers: each txn bumps a and b of one row to the same new value.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      OpContext ctx;
      ctx.synchronous = true;
      Random rng(100 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        Transaction* txn = db->Begin(db->aux_slot(w));
        RowId rid = rids[rng.Uniform(kRows)];
        int64_t next = static_cast<int64_t>(rng.Next() % 1000000);
        Status st = table->UpdateApply(
            &ctx, txn, rid,
            [next](RowView, std::vector<std::pair<uint32_t, Value>>* sets) {
              sets->push_back({1, Value::Int64(next)});
              sets->push_back({2, Value::Int64(next)});
              return Status::OK();
            });
        if (st.ok()) st = db->Commit(&ctx, txn);
        if (!st.ok()) (void)db->Abort(&ctx, txn);
      }
    });
  }

  // Readers: verify a == b on every visible version; RR additionally
  // verifies repeated reads within one txn return identical values.
  IsolationLevel iso = GetParam();
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      OpContext ctx;
      ctx.synchronous = true;
      Random rng(200 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        Transaction* txn = db->Begin(db->aux_slot(4 + r), iso);
        RowId rid = rids[rng.Uniform(kRows)];
        Slice row1, row2;
        Status st = table->GetRef(&ctx, txn, rid, &row1);
        if (st.ok()) {
          RowView v(&table->schema(), row1.data());
          if (v.GetInt64(1) != v.GetInt64(2)) violations.fetch_add(1);
          if (iso == IsolationLevel::kRepeatableRead) {
            st = table->GetRef(&ctx, txn, rid, &row2);
            if (st.ok() && row1 != row2) violations.fetch_add(1);
          }
        }
        (void)db->Commit(&ctx, txn);
        reads.fetch_add(1);
      }
    });
  }

  // GC thread: continuous reclamation while the chains churn.
  std::thread gc([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t s = 0; s < db->txn_manager()->num_slots(); ++s) {
        db->txn_manager()->RunUndoGc(s);
      }
      db->txn_manager()->SweepTwinTables();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop = true;
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  gc.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 100u);
  // The arenas drain once everything quiesces.
  db->DrainGc();
  EXPECT_EQ(db->txn_manager()->TotalLiveUndo(), 0u);
  ASSERT_OK(db->Close());
}

INSTANTIATE_TEST_SUITE_P(Isolation, MvccStressTest,
                         ::testing::Values(IsolationLevel::kReadCommitted,
                                           IsolationLevel::kRepeatableRead));

// Long version chains: one slow RR reader pins history while writers stack
// dozens of versions; the reader keeps seeing its snapshot version.
TEST(MvccChainTest, DeepChainsServeOldSnapshots) {
  TestDir dir("mvcc_chain");
  DatabaseOptions opts;
  opts.path = dir.path();
  opts.workers = 1;
  opts.slots_per_worker = 4;
  auto db_r = Database::Open(opts);
  ASSERT_OK_R(db_r);
  Database* db = db_r.value().get();
  Schema schema({{"v", ColumnType::kInt64, 0, false}});
  Table* table = db->CreateTable("chain", schema).value();

  OpContext ctx;
  ctx.synchronous = true;
  Transaction* init = db->Begin(db->aux_slot(0));
  RowBuilder b(&table->schema());
  b.SetInt64(0, 0);
  RowId rid = 0;
  ASSERT_OK(table->Insert(&ctx, init, b.Encode().value(), &rid));
  ASSERT_OK(db->Commit(&ctx, init));

  Transaction* old_reader =
      db->Begin(db->aux_slot(1), IsolationLevel::kRepeatableRead);
  Slice row;
  ASSERT_OK(table->GetRef(&ctx, old_reader, rid, &row));
  EXPECT_EQ(RowView(&table->schema(), row.data()).GetInt64(0), 0);

  // Stack 50 committed versions on top.
  for (int64_t i = 1; i <= 50; ++i) {
    Transaction* w = db->Begin(db->aux_slot(0));
    ASSERT_OK(table->Update(&ctx, w, rid, {{0, Value::Int64(i)}}));
    ASSERT_OK(db->Commit(&ctx, w));
    db->txn_manager()->RunUndoGc(db->aux_slot(0));  // pinned by old_reader
  }
  // Old snapshot still resolves to version 0 through the whole chain.
  ASSERT_OK(table->GetRef(&ctx, old_reader, rid, &row));
  EXPECT_EQ(RowView(&table->schema(), row.data()).GetInt64(0), 0);
  ASSERT_OK(db->Commit(&ctx, old_reader));

  // With the reader gone, GC reclaims the whole chain.
  db->DrainGc();
  EXPECT_EQ(db->txn_manager()->TotalLiveUndo(), 0u);

  Transaction* fresh = db->Begin(db->aux_slot(1));
  ASSERT_OK(table->GetRef(&ctx, fresh, rid, &row));
  EXPECT_EQ(RowView(&table->schema(), row.data()).GetInt64(0), 50);
  ASSERT_OK(db->Commit(&ctx, fresh));
  ASSERT_OK(db->Close());
}

}  // namespace
}  // namespace phoebe
