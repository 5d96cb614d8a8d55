// Read-only commits: a transaction that logged nothing and holds no UNDO
// commits without a commit timestamp, a WAL record or a flush wait. Its one
// durability duty is the observed-commit check: it must not be acknowledged
// while a commit it read from is prepared (visible) but not finished
// (possibly not durable). These tests pin the WAL savings, the check itself
// (driven step by step through TxnManager::PrepareCommit), its fail-stop
// behaviour, and a crash property: no acknowledged read is ever lost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "io/fault_env.h"
#include "io/io_stats.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema CounterSchema() {
  return Schema({
      {"k", ColumnType::kInt64, 0, false},
      {"v", ColumnType::kInt64, 0, false},
  });
}

DatabaseOptions MakeOptions(const std::string& path, Env* env) {
  DatabaseOptions opts;
  opts.path = path;
  opts.env = env;
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 16ull << 20;
  return opts;
}

/// Reads the counter row `rid` under `txn`: its value, or -1 when no version
/// is visible.
Status ReadCounter(OpContext* ctx, Table* table, Transaction* txn, RowId rid,
                   int64_t* v) {
  Slice row;
  Status st = table->GetRef(ctx, txn, rid, &row);
  if (st.IsNotFound()) {
    *v = -1;
    return Status::OK();
  }
  if (!st.ok()) return st;
  *v = RowView(&table->schema(), row.data()).GetInt64(1);
  return Status::OK();
}

Status SetCounter(OpContext* ctx, Table* table, Transaction* txn, RowId rid,
                  int64_t v) {
  return table->Update(ctx, txn, rid, {{1, Value::Int64(v)}});
}

class ReadOnlyCommitTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kWriterSlot = 0;
  static constexpr uint32_t kReaderSlot = 1;
  static constexpr uint32_t kOtherSlot = 2;

  /// Opens a database holding one committed counter row (k = 0, v = 0),
  /// on a FaultInjectionEnv when `faulty`.
  void Open(bool faulty = false, uint32_t flush_interval_us = 100) {
    dir_ = std::make_unique<TestDir>("readonly_commit");
    if (faulty) fenv_ = std::make_unique<FaultInjectionEnv>(Env::Default());
    DatabaseOptions opts = MakeOptions(dir_->path(), fenv_.get());
    opts.wal_flush_interval_us = flush_interval_us;
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    db_ = std::move(db.value());
    table_ = db_->CreateTable("counter", CounterSchema()).value();
    ASSERT_OK(db_->CreateIndex("counter", "pk", {0}, true));
    sync_.synchronous = true;
    async_.synchronous = false;
    Transaction* txn = db_->Begin(db_->aux_slot());
    RowBuilder b(&table_->schema());
    b.SetInt64(0, 0).SetInt64(1, 0);
    ASSERT_OK(table_->Insert(&sync_, txn, b.Encode().value(), &rid_));
    ASSERT_OK(db_->Commit(&sync_, txn));
  }

  /// Runs the first half of Database::Commit for `writer`: the commit
  /// timestamp, the ets stamps (the new versions become visible to later
  /// snapshots) and the commit record. The commit is not finished until
  /// the writer's Commit is called. Returns the commit timestamp.
  Timestamp PrepareCommit(Transaction* writer) {
    Timestamp cts = db_->txn_manager()->PrepareCommit(writer);
    db_->wal()->LogCommit(writer, cts);
    return cts;
  }

  /// Starts a writer that sets the counter to `v` and prepares its commit.
  Timestamp PrepareWriter(int64_t v, Transaction** writer) {
    *writer = db_->Begin(kWriterSlot);
    EXPECT_OK(SetCounter(&sync_, table_, *writer, rid_, v));
    return PrepareCommit(*writer);
  }

  int64_t Read(Transaction* txn) {
    int64_t v = 0;
    EXPECT_OK(ReadCounter(&sync_, table_, txn, rid_, &v));
    return v;
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<FaultInjectionEnv> fenv_;  // outlives db_
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  RowId rid_ = 0;
  OpContext sync_;
  OpContext async_;
};

TEST_F(ReadOnlyCommitTest, CommitAndAbortAppendAndFlushNothing) {
  Open();
  for (OpContext* ctx : {&sync_, &async_}) {
    SCOPED_TRACE(ctx->synchronous ? "sync" : "coroutine");
    const uint64_t appends = db_->wal()->pipeline_stats().appends.load();
    const uint64_t flushes = IoStats::Global().wal_flushes.load();

    Transaction* reader = db_->Begin(kReaderSlot);
    EXPECT_EQ(Read(reader), 0);
    EXPECT_TRUE(reader->read_only());
    ASSERT_OK(db_->Commit(ctx, reader));
    EXPECT_EQ(reader->state(), TxnState::kCommitted);

    Transaction* aborter = db_->Begin(kReaderSlot);
    EXPECT_EQ(Read(aborter), 0);
    ASSERT_OK(db_->Abort(ctx, aborter));
    EXPECT_EQ(aborter->state(), TxnState::kAborted);

    // Give a stray record time to reach a flush before comparing.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(db_->wal()->pipeline_stats().appends.load(), appends);
    EXPECT_EQ(IoStats::Global().wal_flushes.load(), flushes);
  }
}

TEST_F(ReadOnlyCommitTest, ReaderOfPreparedCommitBlocksUntilItFinishes) {
  Open();
  Transaction* writer = nullptr;
  const Timestamp cts = PrepareWriter(1, &writer);

  Transaction* reader = db_->Begin(kReaderSlot);
  ASSERT_GT(reader->snapshot(), cts);
  EXPECT_EQ(Read(reader), 1);
  EXPECT_EQ(reader->max_observed_cts, cts);
  for (int i = 0; i < 3; ++i) {
    Status st = db_->Commit(&async_, reader);
    ASSERT_TRUE(st.IsBlocked()) << st.ToString();
    EXPECT_EQ(st.wait_kind(), WaitKind::kCommitFlush);
  }

  // The writer's own Commit logs nothing new (its state is already
  // committed): it waits for durability and finishes.
  ASSERT_OK(db_->Commit(&sync_, writer));
  ASSERT_OK(db_->Commit(&async_, reader));
  EXPECT_EQ(reader->state(), TxnState::kCommitted);
}

TEST_F(ReadOnlyCommitTest, ReaderOfPreparedDeleteBlocksToo) {
  Open();
  Transaction* writer = db_->Begin(kWriterSlot);
  ASSERT_OK(table_->Delete(&sync_, writer, rid_));
  const Timestamp cts = PrepareCommit(writer);

  // The reader sees the tombstone: observing a deletion counts as a read.
  Transaction* reader = db_->Begin(kReaderSlot);
  EXPECT_EQ(Read(reader), -1);
  EXPECT_EQ(reader->max_observed_cts, cts);
  EXPECT_TRUE(db_->Commit(&async_, reader).IsBlocked());

  ASSERT_OK(db_->Commit(&sync_, writer));
  ASSERT_OK(db_->Commit(&async_, reader));
}

TEST_F(ReadOnlyCommitTest, SyncReaderWaitsForPreparedCommit) {
  Open();
  Transaction* writer = nullptr;
  PrepareWriter(1, &writer);
  Transaction* reader = db_->Begin(kReaderSlot);
  EXPECT_EQ(Read(reader), 1);

  std::atomic<bool> returned{false};
  Status reader_status;
  std::thread t([&] {
    OpContext ctx;
    ctx.synchronous = true;
    reader_status = db_->Commit(&ctx, reader);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load()) << "reader acknowledged an unfinished commit";
  EXPECT_OK(db_->Commit(&sync_, writer));
  t.join();
  EXPECT_OK(reader_status);
}

TEST_F(ReadOnlyCommitTest, ReaderWithOlderSnapshotFinishesAtOnce) {
  Open();
  // Snapshot taken before the writer's cts exists (read committed keeps the
  // Begin snapshot until the next StatementBegin).
  Transaction* reader = db_->Begin(kReaderSlot);
  Transaction* writer = nullptr;
  const Timestamp cts = PrepareWriter(1, &writer);
  ASSERT_LT(reader->snapshot(), cts);

  // The reader walks the chain back to the committed v = 0 version, whose
  // commit finished long ago.
  EXPECT_EQ(Read(reader), 0);
  EXPECT_LT(reader->max_observed_cts, cts);
  ASSERT_OK(db_->Commit(&async_, reader));

  ASSERT_OK(db_->Commit(&sync_, writer));
}

TEST_F(ReadOnlyCommitTest, ReadOnlyCommitAfterFailStopIsUnavailable) {
  Open(/*faulty=*/true);
  fenv_->FailAllSyncs(true);
  Transaction* writer = db_->Begin(kWriterSlot);
  ASSERT_OK(SetCounter(&sync_, table_, writer, rid_, 1));
  EXPECT_TRUE(db_->Commit(&sync_, writer).IsUnavailable());
  ASSERT_TRUE(db_->wal()->fail_stopped());

  for (OpContext* ctx : {&sync_, &async_}) {
    Transaction* reader = db_->Begin(kReaderSlot);
    Read(reader);
    Status st = db_->Commit(ctx, reader);
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    // A rejected read-only transaction still aborts cleanly.
    ASSERT_OK(db_->Abort(ctx, reader));
  }
  fenv_->ClearFaults();
  db_->TEST_SimulateCrash();
}

TEST_F(ReadOnlyCommitTest, ReaderWaitingOnRejectedCommitIsUnavailable) {
  // Park the background flushers (commit appends still kick them), so the
  // writer's update stays unflushed until its commit record is appended.
  Open(/*faulty=*/true, /*flush_interval_us=*/60u * 1000 * 1000);

  // The writer's commit is prepared and visible; both readers observe it.
  Transaction* writer = db_->Begin(kWriterSlot);
  ASSERT_OK(SetCounter(&sync_, table_, writer, rid_, 1));
  const Timestamp cts = db_->txn_manager()->PrepareCommit(writer);
  Transaction* async_reader = db_->Begin(kReaderSlot);
  EXPECT_EQ(Read(async_reader), 1);
  EXPECT_TRUE(db_->Commit(&async_, async_reader).IsBlocked());
  Transaction* sync_reader = db_->Begin(kOtherSlot);
  EXPECT_EQ(Read(sync_reader), 1);
  Status sync_status;
  std::thread t([&] {
    OpContext ctx;
    ctx.synchronous = true;
    sync_status = db_->Commit(&ctx, sync_reader);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Its commit record's flush fails: fail-stop rejects the commit, so the
  // writer's slot never finishes.
  fenv_->FailAllSyncs(true);
  db_->wal()->LogCommit(writer, cts);
  EXPECT_TRUE(db_->Commit(&sync_, writer).IsUnavailable());
  EXPECT_TRUE(db_->wal()->fail_stopped());

  t.join();
  EXPECT_TRUE(sync_status.IsUnavailable()) << sync_status.ToString();
  Status st = db_->Commit(&async_, async_reader);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  fenv_->ClearFaults();
  db_->TEST_SimulateCrash();
}

// --- Crash property ------------------------------------------------------------
//
// Writer threads increment one counter row with fdatasync on; reader threads
// record the value they saw whenever their read-only Commit returns OK. At a
// random instant every later fdatasync fails (the moment of power loss: only
// what was synced before it survives), the engine goes fail-stop, the threads
// drain, and the process "crashes" with unsynced data dropped. After reopen
// the counter must be at least every value a reader was acknowledged for.

constexpr int kCrashIters = 4;
constexpr uint32_t kWriters = 2;
constexpr uint32_t kReaders = 3;

class ReadOnlyCrashTest : public ::testing::TestWithParam<int> {};

int64_t RecoveredCounter(Database* db, Table* table, RowId rid) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = db->Begin(db->aux_slot());
  int64_t v = -1;
  EXPECT_OK(ReadCounter(&ctx, table, txn, rid, &v));
  EXPECT_OK(db->Commit(&ctx, txn));
  return v;
}

void WriterLoop(Database* db, Table* table, RowId rid, uint32_t slot,
                const std::atomic<bool>* stop) {
  OpContext ctx;
  ctx.synchronous = true;
  while (!stop->load()) {
    Transaction* txn = db->Begin(slot);
    Status st = table->UpdateApply(
        &ctx, txn, rid,
        [](RowView cur, std::vector<std::pair<uint32_t, Value>>* sets) {
          sets->push_back({1, Value::Int64(cur.GetInt64(1) + 1)});
          return Status::OK();
        });
    if (st.ok()) st = db->Commit(&ctx, txn);
    if (st.IsUnavailable()) return;  // fail-stop: the slot stays busy
    if (!st.ok()) EXPECT_OK(db->Abort(&ctx, txn));
  }
}

void ReaderLoop(Database* db, Table* table, RowId rid, uint32_t slot,
                const std::atomic<bool>* stop, std::atomic<int64_t>* acked) {
  OpContext ctx;
  ctx.synchronous = true;
  while (!stop->load()) {
    Transaction* txn = db->Begin(slot);
    int64_t v = 0;
    Status st = ReadCounter(&ctx, table, txn, rid, &v);
    if (st.ok()) st = db->Commit(&ctx, txn);
    if (st.ok()) {
      int64_t prev = acked->load();
      while (v > prev && !acked->compare_exchange_weak(prev, v)) {
      }
      continue;
    }
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    EXPECT_OK(db->Abort(&ctx, txn));
    if (st.IsUnavailable()) return;
  }
}

TEST_P(ReadOnlyCrashTest, AcknowledgedReadsSurviveCrash) {
  const int seed = GetParam();
  TestDir dir("readonly_crash_" + std::to_string(seed));
  int64_t acked_max = 0;
  RowId rid = 0;

  for (int iter = 0; iter <= kCrashIters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    // The last round reopens on the pristine Env and only verifies.
    const bool last = iter == kCrashIters;
    FaultInjectionEnv fenv(Env::Default(), seed * 7927 + iter);
    auto opened = Database::Open(MakeOptions(dir.path(), last ? nullptr : &fenv));
    ASSERT_OK_R(opened);
    std::unique_ptr<Database> db = std::move(opened.value());

    Table* table = nullptr;
    if (iter == 0) {
      table = db->CreateTable("counter", CounterSchema()).value();
      ASSERT_OK(db->CreateIndex("counter", "pk", {0}, true));
      OpContext ctx;
      ctx.synchronous = true;
      Transaction* txn = db->Begin(db->aux_slot());
      RowBuilder b(&table->schema());
      b.SetInt64(0, 0).SetInt64(1, 0);
      ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid));
      ASSERT_OK(db->Commit(&ctx, txn));
    } else {
      auto t = db->GetTable("counter");
      ASSERT_OK_R(t);
      table = t.value();
    }
    const int64_t recovered = RecoveredCounter(db.get(), table, rid);
    EXPECT_GE(recovered, acked_max)
        << "a read acknowledged before the crash was lost";
    if (last) {
      ASSERT_OK(db->Close());
      break;
    }

    std::atomic<bool> stop{false};
    std::atomic<int64_t> acked{acked_max};
    std::vector<std::thread> threads;
    for (uint32_t i = 0; i < kWriters; ++i) {
      threads.emplace_back(WriterLoop, db.get(), table, rid, i, &stop);
    }
    for (uint32_t i = 0; i < kReaders; ++i) {
      threads.emplace_back(ReaderLoop, db.get(), table, rid, kWriters + i,
                           &stop, &acked);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(10 + 7 * ((seed + iter) % 5)));
    fenv.FailAllSyncs(true);
    for (int i = 0; i < 2000 && !db->wal()->fail_stopped(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(db->wal()->fail_stopped());
    stop.store(true);
    for (auto& t : threads) t.join();
    acked_max = acked.load();

    fenv.ClearFaults();
    db->TEST_SimulateCrash();
    db.reset();
    fenv.DropUnsyncedData(/*torn_tail=*/iter % 2 == 1);
  }
  EXPECT_GT(acked_max, 0) << "no read was ever acknowledged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadOnlyCrashTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace phoebe
