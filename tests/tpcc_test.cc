#include "tpcc/tpcc_driver.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "tpcc/tpcc_loader.h"

namespace phoebe {
namespace tpcc {
namespace {

class TpccTest : public ::testing::Test {
 protected:
  void Open(DatabaseOptions opts = {}) {
    dir_ = std::make_unique<TestDir>("tpcc");
    opts.path = dir_->path();
    if (opts.workers == 0) opts.workers = 2;
    if (opts.slots_per_worker == 0) opts.slots_per_worker = 4;
    if (opts.buffer_bytes == 0) opts.buffer_bytes = 64ull << 20;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
  }

  void Load(int warehouses = 1) {
    ScaleConfig cfg;
    cfg.warehouses = warehouses;
    cfg.customers_per_district = 60;
    cfg.items = 1000;
    cfg.initial_orders_per_district = 60;
    cfg.undelivered_tail = 18;
    cfg.load_threads = 2;
    auto tables = LoadTpcc(db_.get(), cfg);
    ASSERT_OK_R(tables);
    workload_ = std::make_unique<Workload>();
    workload_->db = db_.get();
    workload_->tables = tables.value();
    workload_->scale = cfg;
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Workload> workload_;
};

TEST_F(TpccTest, LoadIsConsistent) {
  Open();
  Load();
  ASSERT_OK(CheckConsistency(workload_.get()));
}

TEST_F(TpccTest, SingleTransactionsSynchronous) {
  Open();
  Load();
  TaskEnv env;
  env.global_slot_id = db_->aux_slot(2);
  env.ctx.synchronous = true;
  TpccRandom rnd(7);

  // Each profile runs and commits at least once in synchronous mode.
  {
    TxnTask task = NewOrderTxn(workload_.get(), &env,
                               MakeNewOrderParams(&rnd, workload_->scale, 1));
    ASSERT_OK(task.RunToCompletion());
  }
  {
    TxnTask task = PaymentTxn(workload_.get(), &env,
                              MakePaymentParams(&rnd, workload_->scale, 1));
    ASSERT_OK(task.RunToCompletion());
  }
  {
    TxnTask task = OrderStatusTxn(
        workload_.get(), &env,
        MakeOrderStatusParams(&rnd, workload_->scale, 1));
    Status st = task.RunToCompletion();
    // By-name lookups may legitimately miss at tiny scale.
    ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
  }
  {
    TxnTask task =
        DeliveryTxn(workload_.get(), &env, MakeDeliveryParams(&rnd, 1));
    ASSERT_OK(task.RunToCompletion());
  }
  {
    TxnTask task =
        StockLevelTxn(workload_.get(), &env, MakeStockLevelParams(&rnd, 1));
    ASSERT_OK(task.RunToCompletion());
  }
  EXPECT_GE(workload_->total_commits(), 4u);
  ASSERT_OK(CheckConsistency(workload_.get()));
}

TEST_F(TpccTest, CoroutineSchedulerRun) {
  Open();
  Load();
  DriverConfig cfg;
  cfg.seconds = 2.0;
  cfg.warmup_seconds = 0.2;
  cfg.affinity = true;
  DriverResult result = RunTpcc(workload_.get(), cfg);
  EXPECT_GT(result.commits, 100u) << result.Summary();
  EXPECT_GT(result.new_order_commits, 10u) << result.Summary();
  ASSERT_OK(CheckConsistency(workload_.get()));
}

TEST_F(TpccTest, ThreadModelRun) {
  DatabaseOptions opts;
  opts.workers = 2;
  opts.slots_per_worker = 4;  // 8 threads, one per task slot
  Open(opts);
  Load();
  DriverConfig cfg;
  cfg.seconds = 1.5;
  cfg.warmup_seconds = 0.2;
  cfg.thread_model = true;
  DriverResult result = RunTpcc(workload_.get(), cfg);
  EXPECT_GT(result.commits, 50u) << result.Summary();
  // Each thread runs UNDO GC for its own slot every gc_every_txns
  // transactions, so a slot holds about one GC period of records however
  // long the run is. Without GC every UNDO record of the run stays live:
  // measured 139-158 k live records after 8-9 k committed write
  // transactions (about 16 records per transaction), against 4-7 k with GC.
  // The bound allows two GC periods of 16 records per transaction per slot.
  TxnManager* tm = db_->txn_manager();
  uint64_t live = 0;
  for (uint32_t i = 0; i < tm->num_slots(); ++i) {
    live += tm->slot(i).arena.live_count();
  }
  const uint64_t writes = workload_->new_order_commits.load() +
                          workload_->payment_commits.load() +
                          workload_->delivery_commits.load();
  const uint64_t bound = uint64_t{opts.workers} * opts.slots_per_worker * 2 *
                         Scheduler::Options().gc_every_txns * 16;
  EXPECT_LT(live, bound) << "live UNDO records after " << writes
                         << " committed write transactions";
  ASSERT_OK(CheckConsistency(workload_.get()));
}

TEST_F(TpccTest, BaselineModeRun) {
  DatabaseOptions opts;
  opts.baseline_single_wal_writer = true;
  opts.baseline_global_lock_table = true;
  opts.baseline_pg_snapshot = true;
  Open(opts);
  Load();
  DriverConfig cfg;
  cfg.seconds = 1.5;
  cfg.warmup_seconds = 0.2;
  DriverResult result = RunTpcc(workload_.get(), cfg);
  EXPECT_GT(result.commits, 50u) << result.Summary();
  ASSERT_OK(CheckConsistency(workload_.get()));
}

TEST_F(TpccTest, ConsistentWithFreezeEnabled) {
  // Run the mix with the temperature housekeeping aggressively freezing
  // cold leaves during the workload; invariants must hold throughout.
  DatabaseOptions opts;
  opts.enable_freeze = true;
  opts.freeze_access_threshold = 1u << 30;  // everything is freezable
  opts.freeze_epoch_age = 0;
  Open(opts);
  Load();
  DriverConfig cfg;
  cfg.seconds = 2.0;
  cfg.warmup_seconds = 0.2;
  DriverResult result = RunTpcc(workload_.get(), cfg);
  EXPECT_GT(result.commits, 50u) << result.Summary();
  // Some data actually froze (history/order tails are cold).
  uint64_t frozen_rows = 0;
  for (Table* t : {workload_->tables.history, workload_->tables.order_line,
                   workload_->tables.order}) {
    frozen_rows += t->frozen()->max_frozen_row_id();
  }
  EXPECT_GT(frozen_rows, 0u) << "expected the freeze pass to make progress";
  ASSERT_OK(CheckConsistency(workload_.get()));
}

TEST_F(TpccTest, ConsistentAfterCrashRecovery) {
  Open();
  Load();
  DriverConfig cfg;
  cfg.seconds = 1.0;
  cfg.warmup_seconds = 0.1;
  (void)RunTpcc(workload_.get(), cfg);
  // Give the group-commit flusher a moment, then "crash".
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::string path = dir_->path();
  db_->TEST_SimulateCrash();
  db_.release();  // intentional leak: no clean shutdown

  DatabaseOptions reopen;
  reopen.path = path;
  reopen.workers = 2;
  reopen.slots_per_worker = 4;
  reopen.buffer_bytes = 64ull << 20;
  auto db2 = Database::Open(reopen);
  ASSERT_OK_R(db2);
  EXPECT_TRUE(db2.value()->recovery_info().ran);
  auto tables = GetTpccTables(db2.value().get());
  ASSERT_OK_R(tables);
  Workload recovered;
  recovered.db = db2.value().get();
  recovered.tables = tables.value();
  recovered.scale = workload_->scale;
  ASSERT_OK(CheckConsistency(&recovered));
  ASSERT_OK(db2.value()->Close());
}

}  // namespace
}  // namespace tpcc
}  // namespace phoebe
