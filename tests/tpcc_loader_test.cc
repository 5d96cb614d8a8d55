// TPC-C population and input-generation tests: cardinalities per clause
// 4.3.3, index coverage, NURand ranges, mix distribution, and remote
// (multi-warehouse) transactions.
#include <gtest/gtest.h>

#include <map>

#include "tests/test_util.h"
#include "tpcc/tpcc_driver.h"
#include "tpcc/tpcc_loader.h"
#include "tpcc/tpcc_random.h"

namespace phoebe {
namespace tpcc {
namespace {

class TpccLoaderTest : public ::testing::Test {
 protected:
  void Load(int warehouses) {
    dir_ = std::make_unique<TestDir>("tpcc_loader");
    DatabaseOptions opts;
    opts.path = dir_->path();
    opts.workers = 2;
    opts.slots_per_worker = 4;
    opts.buffer_bytes = 64ull << 20;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
    scale_.warehouses = warehouses;
    scale_.customers_per_district = 40;
    scale_.items = 500;
    scale_.initial_orders_per_district = 40;
    scale_.undelivered_tail = 12;
    scale_.load_threads = 2;
    auto tables = LoadTpcc(db_.get(), scale_);
    ASSERT_OK_R(tables);
    tables_ = tables.value();
    ctx_.synchronous = true;
  }

  int64_t CountRows(Table* t) {
    Transaction* txn = db_->Begin(db_->aux_slot(0));
    int64_t n = 0;
    EXPECT_OK(t->ScanAllVisible(&ctx_, txn, [&n](RowId, Slice) {
      ++n;
      return true;
    }));
    EXPECT_OK(db_->Commit(&ctx_, txn));
    return n;
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<Database> db_;
  ScaleConfig scale_;
  Tables tables_;
  OpContext ctx_;
};

TEST_F(TpccLoaderTest, CardinalitiesMatchScale) {
  Load(2);
  const int W = scale_.warehouses;
  const int D = scale_.districts_per_warehouse;
  const int C = scale_.customers_per_district;
  const int O = scale_.initial_orders_per_district;
  EXPECT_EQ(CountRows(tables_.warehouse), W);
  EXPECT_EQ(CountRows(tables_.district), W * D);
  EXPECT_EQ(CountRows(tables_.customer), W * D * C);
  EXPECT_EQ(CountRows(tables_.history), W * D * C);
  EXPECT_EQ(CountRows(tables_.item), scale_.items);
  EXPECT_EQ(CountRows(tables_.stock), W * scale_.items);
  EXPECT_EQ(CountRows(tables_.order), W * D * O);
  EXPECT_EQ(CountRows(tables_.new_order), W * D * scale_.undelivered_tail);
  // 5..15 lines per order.
  int64_t lines = CountRows(tables_.order_line);
  EXPECT_GE(lines, W * D * O * 5);
  EXPECT_LE(lines, W * D * O * 15);
}

TEST_F(TpccLoaderTest, EveryCustomerReachableViaBothIndexes) {
  Load(1);
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
    for (int c = 1; c <= scale_.customers_per_district; ++c) {
      RowId rid = 0;
      Slice row;
      ASSERT_OK(tables_.customer->IndexGetRef(
          &ctx_, txn, Tables::kPk,
          {Value::Int32(1), Value::Int32(d), Value::Int32(c)}, &rid, &row));
      RowView v(&tables_.customer->schema(), row.data());
      // The by-name index finds the same customer among its namesakes.
      std::string last = v.GetString(Customer::kLast).ToString();
      bool found = false;
      ASSERT_OK(tables_.customer->IndexScanRef(
          &ctx_, txn, Tables::kCustByName,
          {Value::Int32(1), Value::Int32(d), Value::String(last)}, {},
          [&](RowId r, Slice) {
            if (r == rid) found = true;
            return !found;
          }));
      ASSERT_TRUE(found) << "d=" << d << " c=" << c << " last=" << last;
    }
  }
  ASSERT_OK(db_->Commit(&ctx_, txn));
}

TEST_F(TpccLoaderTest, UndeliveredOrdersHaveNullCarrier) {
  Load(1);
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  int delivered_bound =
      scale_.initial_orders_per_district - scale_.undelivered_tail;
  int checked = 0;
  ASSERT_OK(tables_.order->ScanAllVisible(
      &ctx_, txn, [&](RowId, Slice row) {
        RowView v(&tables_.order->schema(), row.data());
        bool expect_null = v.GetInt32(Order::kId) > delivered_bound;
        EXPECT_EQ(v.IsNull(Order::kCarrierId), expect_null);
        ++checked;
        return true;
      }));
  EXPECT_GT(checked, 0);
  ASSERT_OK(db_->Commit(&ctx_, txn));
}

TEST_F(TpccLoaderTest, RemoteNewOrderAcrossWarehouses) {
  Load(2);
  Workload w;
  w.db = db_.get();
  w.tables = tables_;
  w.scale = scale_;
  TaskEnv env;
  env.global_slot_id = db_->aux_slot(2);
  env.ctx.synchronous = true;

  // Force a remote order line (supply warehouse != home warehouse).
  TpccRandom rnd(5);
  NewOrderParams p = MakeNewOrderParams(&rnd, scale_, 1);
  p.rollback = false;
  p.lines[0].i_id = 1;
  p.lines[0].supply_w_id = 2;
  p.ol_cnt = 5;
  for (int i = 1; i < p.ol_cnt; ++i) p.lines[i].i_id = i + 1;
  TxnTask task = NewOrderTxn(&w, &env, p);
  ASSERT_OK(task.RunToCompletion());

  // The remote stock row's remote_cnt was bumped.
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  RowId rid = 0;
  Slice row;
  ASSERT_OK(tables_.stock->IndexGetRef(&ctx_, txn, Tables::kPk,
                                       {Value::Int32(2), Value::Int32(1)}, &rid,
                                       &row));
  EXPECT_EQ(
      RowView(&tables_.stock->schema(), row.data()).GetInt32(Stock::kRemoteCnt),
      1);
  ASSERT_OK(db_->Commit(&ctx_, txn));
}

TEST_F(TpccLoaderTest, IntentionalRollbackLeavesNoTrace) {
  Load(1);
  Workload w;
  w.db = db_.get();
  w.tables = tables_;
  w.scale = scale_;
  TaskEnv env;
  env.global_slot_id = db_->aux_slot(2);
  env.ctx.synchronous = true;

  // next_o_id before.
  Transaction* before = db_->Begin(db_->aux_slot(0));
  RowId d_rid = 0;
  Slice d_row;
  ASSERT_OK(tables_.district->IndexGetRef(&ctx_, before, Tables::kPk,
                                          {Value::Int32(1), Value::Int32(1)},
                                          &d_rid, &d_row));
  int32_t next_before = RowView(&tables_.district->schema(), d_row.data())
                            .GetInt32(District::kNextOId);
  ASSERT_OK(db_->Commit(&ctx_, before));

  TpccRandom rnd(9);
  NewOrderParams p = MakeNewOrderParams(&rnd, scale_, 1);
  p.d_id = 1;
  p.rollback = true;
  p.lines[p.ol_cnt - 1].i_id = -1;  // unused item
  TxnTask task = NewOrderTxn(&w, &env, p);
  Status st = task.RunToCompletion();
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(w.user_aborts.load(), 1u);

  // The district counter and order tables are untouched.
  Transaction* after = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(tables_.district->IndexGetRef(&ctx_, after, Tables::kPk,
                                          {Value::Int32(1), Value::Int32(1)},
                                          &d_rid, &d_row));
  EXPECT_EQ(RowView(&tables_.district->schema(), d_row.data())
                .GetInt32(District::kNextOId),
            next_before);
  RowId o_rid = 0;
  Slice o_row;
  EXPECT_TRUE(tables_.order
                  ->IndexGetRef(&ctx_, after, Tables::kPk,
                                {Value::Int32(1), Value::Int32(1),
                                 Value::Int32(next_before)},
                                &o_rid, &o_row)
                  .IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, after));
}

// --- Input generation ------------------------------------------------------------

TEST(TpccRandomTest, LastNameSyllables) {
  EXPECT_EQ(TpccRandom::LastName(0), "BARBARBAR");
  EXPECT_EQ(TpccRandom::LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(TpccRandom::LastName(999), "EINGEINGEING");
}

TEST(TpccRandomTest, NURandRanges) {
  TpccRandom rnd(1);
  for (int i = 0; i < 5000; ++i) {
    int64_t c = rnd.NURandCustomerId(3000);
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 3000);
    int64_t it = rnd.NURandItemId(100000);
    EXPECT_GE(it, 1);
    EXPECT_LE(it, 100000);
  }
}

TEST(TpccRandomTest, StringsRespectBounds) {
  TpccRandom rnd(2);
  for (int i = 0; i < 200; ++i) {
    std::string a = rnd.AString(8, 16);
    EXPECT_GE(a.size(), 8u);
    EXPECT_LE(a.size(), 16u);
    std::string n = rnd.NString(4, 4);
    EXPECT_EQ(n.size(), 4u);
    for (char c : n) EXPECT_TRUE(c >= '0' && c <= '9');
    EXPECT_EQ(rnd.Zip().size(), 9u);
    EXPECT_EQ(rnd.Zip().substr(4), "11111");
  }
}

TEST(TpccRandomTest, DataStringsContainOriginalTenPercent) {
  TpccRandom rnd(3);
  int hits = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rnd.DataString(26, 50).find("ORIGINAL") != std::string::npos) ++hits;
  }
  EXPECT_GT(hits, 120);  // ~10% of 2000, loose bounds
  EXPECT_LT(hits, 280);
}

TEST(TpccMixTest, ParamsFollowSpecDistributions) {
  ScaleConfig scale = ScaleConfig::Spec(4);
  TpccRandom rnd(7);
  int payments_by_name = 0, payments_remote = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    PaymentParams p = MakePaymentParams(&rnd, scale, 1);
    if (p.by_name) ++payments_by_name;
    if (p.c_w_id != p.w_id) ++payments_remote;
  }
  // 60% by-name, 15% remote (loose 3-sigma-ish bounds).
  EXPECT_NEAR(payments_by_name, kN * 60 / 100, kN / 20);
  EXPECT_NEAR(payments_remote, kN * 15 / 100, kN / 20);

  int rollbacks = 0;
  int ol_total = 0;
  for (int i = 0; i < kN; ++i) {
    NewOrderParams p = MakeNewOrderParams(&rnd, scale, 1);
    if (p.rollback) ++rollbacks;
    ol_total += p.ol_cnt;
    for (int l = 0; l < p.ol_cnt; ++l) {
      if (!p.rollback || l + 1 < p.ol_cnt) {
        EXPECT_GE(p.lines[l].i_id, 1);
        EXPECT_LE(p.lines[l].i_id, scale.items);
      }
    }
  }
  EXPECT_NEAR(rollbacks, kN / 100, kN / 60);     // ~1%
  EXPECT_NEAR(ol_total / kN, 10, 1);             // mean ol_cnt = 10
}

}  // namespace
}  // namespace tpcc
}  // namespace phoebe
