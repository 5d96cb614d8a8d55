// Temperature-exchange stress: concurrent writers and readers race the
// freeze/warm housekeeping; the final state must match a sequentialized
// model and never lose or duplicate rows across tiers.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "core/database.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

class FreezeStressTest : public ::testing::TestWithParam<int> {};

TEST_P(FreezeStressTest, ConcurrentFreezeKeepsDataIntact) {
  TestDir dir("freeze_stress");
  DatabaseOptions opts;
  opts.path = dir.path();
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 32ull << 20;
  opts.aux_slots = 10;
  opts.freeze_access_threshold = 1u << 30;  // age is the only gate
  opts.freeze_epoch_age = 0;
  auto db_r = Database::Open(opts);
  ASSERT_OK_R(db_r);
  Database* db = db_r.value().get();

  Schema schema({{"k", ColumnType::kInt64, 0, false},
                 {"v", ColumnType::kInt64, 0, false}});
  Table* table = db->CreateTable("fz", schema).value();
  ASSERT_OK(db->CreateIndex("fz", "fz_pk", {0}, true));

  // Seed enough rows to span many leaves.
  constexpr int kRows = 3000;
  std::vector<RowId> rids(kRows);
  {
    OpContext ctx;
    ctx.synchronous = true;
    Transaction* txn = db->Begin(db->aux_slot(0));
    for (int i = 0; i < kRows; ++i) {
      RowBuilder b(&table->schema());
      b.SetInt64(0, i).SetInt64(1, 0);
      ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rids[i]));
      if (i % 500 == 499) {
        ASSERT_OK(db->Commit(&ctx, txn));
        txn = db->Begin(db->aux_slot(0));
      }
    }
    ASSERT_OK(db->Commit(&ctx, txn));
  }
  db->DrainGc();

  std::atomic<bool> stop{false};
  // The expected final value of each key, updated only on commit (keys are
  // sharded per writer thread, so no cross-thread conflicts on the model).
  std::vector<std::atomic<int64_t>> expected(kRows);
  for (auto& e : expected) e.store(0);

  Random seed_rng(GetParam() * 77 + 1);

  // Writers update random keys (by index lookup, so warmed rids are found).
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    uint64_t seed = seed_rng.Next();
    writers.emplace_back([&, w, seed] {
      OpContext ctx;
      ctx.synchronous = true;
      Random rng(seed);
      while (!stop.load(std::memory_order_relaxed)) {
        // Writers churn only the upper half of the key space so the lower
        // half goes cold and the freeze boundary can advance through it
        // (hot leaves with live twin tables are correctly not freezable).
        int64_t k = kRows / 2 +
                    static_cast<int64_t>(rng.Uniform(kRows / 4)) * 2 + w;
        int64_t next = static_cast<int64_t>(rng.Next() % 100000);
        Transaction* txn = db->Begin(db->aux_slot(w));
        RowId rid = 0;
        Status st = table->IndexGetRef(&ctx, txn, 0, {Value::Int64(k)}, &rid,
                                       nullptr);
        if (st.ok()) {
          st = table->Update(&ctx, txn, rid, {{1, Value::Int64(next)}});
        }
        if (st.ok()) st = db->Commit(&ctx, txn);
        if (st.ok()) {
          expected[static_cast<size_t>(k)].store(
              next, std::memory_order_relaxed);
        } else {
          (void)db->Abort(&ctx, txn);
        }
      }
    });
  }

  // Readers sanity-check random keys through the index.
  std::thread reader([&] {
    OpContext ctx;
    ctx.synchronous = true;
    Random rng(999);
    while (!stop.load(std::memory_order_relaxed)) {
      int64_t k = static_cast<int64_t>(rng.Uniform(kRows));
      Transaction* txn = db->Begin(db->aux_slot(3));
      Slice row;
      RowId rid = 0;
      Status st = table->IndexGetRef(&ctx, txn, 0, {Value::Int64(k)}, &rid,
                                     &row);
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      if (st.ok()) {
        EXPECT_EQ(RowView(&table->schema(), row.data()).GetInt64(0), k);
      }
      (void)db->Commit(&ctx, txn);
    }
  });

  // Housekeeping: freeze passes + GC race the workload continuously.
  std::thread housekeeper([&] {
    OpContext ctx;
    ctx.synchronous = true;
    ctx.count_accesses = false;
    while (!stop.load(std::memory_order_relaxed)) {
      db->pool()->AdvanceEpoch();
      (void)table->FreezePass(&ctx, 2);
      for (uint32_t s = 0; s < db->txn_manager()->num_slots(); ++s) {
        db->txn_manager()->RunUndoGc(s);
      }
      db->txn_manager()->SweepTwinTables();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop = true;
  for (auto& t : writers) t.join();
  reader.join();
  housekeeper.join();
  db->DrainGc();

  const RowId watermark = table->frozen()->max_frozen_row_id();
  EXPECT_GT(watermark, 0u) << "freeze should have made progress";

  // One tier per row: no live tree slot at or below the frozen watermark,
  // and the table leaves run contiguously from just above it to the tail
  // (a walk that stops early would hide every later row).
  OpContext ctx;
  ctx.synchronous = true;
  size_t live_below = 0;
  size_t gaps = 0;
  RowId leaf_start = watermark + 1;
  ASSERT_OK(table->tree()->ForEachTableLeaf(
      &ctx, [&](TableLeaf& leaf, BufferFrame*) {
        if (leaf.first_row_id() != leaf_start) ++gaps;
        for (uint16_t s = 0; s < leaf.capacity(); ++s) {
          if (leaf.IsLive(s) && leaf.first_row_id() + s <= watermark) {
            ++live_below;
          }
        }
        leaf_start = leaf.first_row_id() + leaf.capacity();
        return true;
      }));
  EXPECT_EQ(live_below, 0u) << "live tree slots at or below " << watermark;
  EXPECT_EQ(gaps, 0u) << "table leaves not contiguous from " << watermark + 1;
  EXPECT_GE(leaf_start, table->next_row_id())
      << "table leaves end before the last row id";

  // Final verification: every key present exactly once with the expected
  // value, across both tiers.
  Transaction* verify = db->Begin(db->aux_slot(0));
  std::map<int64_t, int64_t> found;
  ASSERT_OK(table->ScanAllVisible(
      &ctx, verify, [&](RowId, Slice row) {
        RowView v(&table->schema(), row.data());
        auto [it, fresh] = found.emplace(v.GetInt64(0), v.GetInt64(1));
        EXPECT_TRUE(fresh) << "duplicate key " << v.GetInt64(0);
        return true;
      }));
  ASSERT_EQ(found.size(), static_cast<size_t>(kRows)) << "lost rows";
  for (int k = 0; k < kRows; ++k) {
    ASSERT_EQ(found[k], expected[static_cast<size_t>(k)].load())
        << "key " << k;
  }
  ASSERT_OK(db->Commit(&ctx, verify));
  ASSERT_OK(db->Close());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreezeStressTest, ::testing::Range(0, 3));

}  // namespace
}  // namespace phoebe
