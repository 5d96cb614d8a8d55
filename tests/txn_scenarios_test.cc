// Multi-operation transaction scenarios: own-write chains, multi-update
// rollback, and the coroutine-mode blocked/retry protocol driven by hand.
#include <gtest/gtest.h>

#include "core/database.h"
#include "runtime/task.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema KvSchema() {
  return Schema({{"k", ColumnType::kInt64, 0, false},
                 {"v", ColumnType::kInt64, 0, false}});
}

class TxnScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TestDir>("txn_scenarios");
    DatabaseOptions opts;
    opts.path = dir_->path();
    opts.workers = 1;
    opts.slots_per_worker = 4;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
    table_ = db_->CreateTable("kv", KvSchema()).value();
    ctx_.synchronous = true;
  }

  RowId Insert(Transaction* txn, int64_t k, int64_t v) {
    RowBuilder b(&table_->schema());
    b.SetInt64(0, k).SetInt64(1, v);
    RowId rid = 0;
    EXPECT_OK(table_->Insert(&ctx_, txn, b.Encode().value(), &rid));
    return rid;
  }

  int64_t Read(Transaction* txn, RowId rid) {
    Slice row;
    Status st = table_->GetRef(&ctx_, txn, rid, &row);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return RowView(&table_->schema(), row.data()).GetInt64(1);
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  OpContext ctx_;
};

TEST_F(TxnScenarioTest, ChainedOwnWritesVisible) {
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  RowId rid = Insert(txn, 1, 10);
  EXPECT_EQ(Read(txn, rid), 10);  // own insert
  ASSERT_OK(table_->Update(&ctx_, txn, rid, {{1, Value::Int64(20)}}));
  EXPECT_EQ(Read(txn, rid), 20);  // own first update
  ASSERT_OK(table_->Update(&ctx_, txn, rid, {{1, Value::Int64(30)}}));
  EXPECT_EQ(Read(txn, rid), 30);  // own second update
  ASSERT_OK(table_->Delete(&ctx_, txn, rid));
  Slice row;
  // Own delete.
  EXPECT_TRUE(table_->GetRef(&ctx_, txn, rid, &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, txn));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  EXPECT_TRUE(table_->GetRef(&ctx_, reader, rid, &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TxnScenarioTest, MultiUpdateRollbackRestoresOriginal) {
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = Insert(setup, 2, 100);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* txn = db_->Begin(db_->aux_slot(0));
  for (int64_t v = 101; v <= 110; ++v) {
    ASSERT_OK(table_->Update(&ctx_, txn, rid, {{1, Value::Int64(v)}}));
  }
  ASSERT_OK(table_->Delete(&ctx_, txn, rid));
  ASSERT_OK(db_->Abort(&ctx_, txn));

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  EXPECT_EQ(Read(reader, rid), 100);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TxnScenarioTest, UpdateThenDeleteThenAbortKeepsRow) {
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = Insert(setup, 3, 7);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  Transaction* txn = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, txn, rid, {{1, Value::Int64(8)}}));
  ASSERT_OK(table_->Delete(&ctx_, txn, rid));
  // A concurrent reader still sees the committed version mid-flight.
  Transaction* reader = db_->Begin(db_->aux_slot(1));
  EXPECT_EQ(Read(reader, rid), 7);
  ASSERT_OK(db_->Commit(&ctx_, reader));
  ASSERT_OK(db_->Abort(&ctx_, txn));

  Transaction* after = db_->Begin(db_->aux_slot(0));
  EXPECT_EQ(Read(after, rid), 7);
  ASSERT_OK(db_->Commit(&ctx_, after));
}

TEST_F(TxnScenarioTest, InsertDeleteSameTxnThenCommit) {
  Transaction* txn = db_->Begin(db_->aux_slot(0));
  RowId rid = Insert(txn, 4, 1);
  ASSERT_OK(table_->Delete(&ctx_, txn, rid));
  ASSERT_OK(db_->Commit(&ctx_, txn));
  db_->DrainGc();  // purge the deleted tuple

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  Slice row;
  EXPECT_TRUE(table_->GetRef(&ctx_, reader, rid, &row).IsNotFound());
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

// --- Coroutine blocked/retry protocol, driven by hand ------------------------

/// The writes that lock an existing row.
enum class RowWrite { kUpdate, kDelete };

/// Sets `rid`'s value to `value` (or deletes it) and commits, yielding on
/// every kBlocked. The transaction is handed out in `*txn_out`.
TxnTask BlockedWriteTask(Database* db, Table* table, RowId rid, uint32_t slot,
                         RowWrite write, int64_t value, int* wait_count,
                         Transaction** txn_out) {
  TaskEnv env;  // local env: we drive this task manually
  env.global_slot_id = slot;
  env.ctx.synchronous = false;  // coroutine mode: ops return kBlocked
  Transaction* txn = db->Begin(slot);
  *txn_out = txn;
  db->StatementBegin(txn);
  Status st;
  for (;;) {
    st = write == RowWrite::kDelete
             ? table->Delete(&env.ctx, txn, rid)
             : table->Update(&env.ctx, txn, rid, {{1, Value::Int64(value)}});
    if (!st.IsBlocked()) break;
    ++*wait_count;
    co_await YieldWait(st);
  }
  if (!st.ok()) {
    (void)db->Abort(&env.ctx, txn);
    co_return st;
  }
  for (;;) {
    st = db->Commit(&env.ctx, txn);
    if (!st.IsBlocked()) break;
    co_await YieldWait(st);
  }
  co_return st;
}

class TxnScenarioWriteTest : public TxnScenarioTest,
                             public ::testing::WithParamInterface<RowWrite> {};

INSTANTIATE_TEST_SUITE_P(
    Writes, TxnScenarioWriteTest,
    ::testing::Values(RowWrite::kUpdate, RowWrite::kDelete),
    [](const ::testing::TestParamInfo<RowWrite>& info) {
      return info.param == RowWrite::kUpdate ? "Update" : "Delete";
    });

TEST_P(TxnScenarioWriteTest, CoroutineWaitsOnXidLockThenSucceeds) {
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = Insert(setup, 5, 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  // Holder: synchronous txn with an uncommitted update.
  Transaction* holder = db_->Begin(db_->aux_slot(0));
  ASSERT_OK(table_->Update(&ctx_, holder, rid, {{1, Value::Int64(2)}}));

  int waits = 0;
  Transaction* waiter = nullptr;
  TxnTask task = BlockedWriteTask(db_.get(), table_, rid, db_->aux_slot(1),
                                  GetParam(), 3, &waits, &waiter);
  // Drive the coroutine: it must park on the holder's XID lock, before it
  // linked any UNDO record (a kBlocked write has changed nothing, so the
  // retry repeats it whole).
  task.Resume();
  ASSERT_FALSE(task.done());
  EXPECT_EQ(task.wait_kind(), WaitKind::kXidLock);
  EXPECT_EQ(task.wait_xid(), holder->xid());
  EXPECT_GE(waits, 1);
  EXPECT_EQ(waiter->undo_count(), 0u);

  // A few more resumes while the holder is alive: still parked.
  for (int i = 0; i < 3; ++i) {
    task.Resume();
    ASSERT_FALSE(task.done());
    EXPECT_EQ(task.wait_kind(), WaitKind::kXidLock);
    EXPECT_EQ(waiter->undo_count(), 0u);
  }

  // Holder commits; the waiter retries against the new version and wins.
  ASSERT_OK(db_->Commit(&ctx_, holder));
  Status st = task.RunToCompletion();
  ASSERT_OK(st);

  Transaction* reader = db_->Begin(db_->aux_slot(0));
  if (GetParam() == RowWrite::kUpdate) {
    EXPECT_EQ(Read(reader, rid), 3);
  } else {
    Slice row;
    EXPECT_TRUE(table_->GetRef(&ctx_, reader, rid, &row).IsNotFound());
  }
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

TEST_F(TxnScenarioTest, CoroutineCommitYieldsOnFlush) {
  // With a slow flush interval the commit must yield kCommitFlush at least
  // once before becoming durable.
  Transaction* setup = db_->Begin(db_->aux_slot(0));
  RowId rid = Insert(setup, 6, 1);
  ASSERT_OK(db_->Commit(&ctx_, setup));

  int waits = 0;
  Transaction* txn = nullptr;
  TxnTask task = BlockedWriteTask(db_.get(), table_, rid, db_->aux_slot(1),
                                  RowWrite::kUpdate, 9, &waits, &txn);
  Status st = task.RunToCompletion();  // spin-resume until durable
  ASSERT_OK(st);
  Transaction* reader = db_->Begin(db_->aux_slot(0));
  EXPECT_EQ(Read(reader, rid), 9);
  ASSERT_OK(db_->Commit(&ctx_, reader));
}

}  // namespace
}  // namespace phoebe
