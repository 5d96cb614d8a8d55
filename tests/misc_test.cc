// Cross-cutting odds and ends: profiler accounting, separated WAL
// directory (Exp 3 setup), key-size limits, and option handling.
#include <gtest/gtest.h>

#include "common/profiler.h"
#include "core/database.h"
#include "storage/btree.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

TEST(ProfilerTest, ScopesAccumulateWhenEnabled) {
  Profiler::Reset();
  Profiler::Enable(true);
  {
    TxnScope txn_scope;
    ComponentScope wal(Component::kWal);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
  }
  {
    TxnScope txn_scope;
    ComponentScope mvcc(Component::kMvcc);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
  }
  Profiler::Enable(false);
  Profiler::Totals agg = Profiler::Aggregate();
  EXPECT_EQ(agg.txn_count, 2u);
  EXPECT_GT(agg.total_cycles, 0u);
  EXPECT_GT(agg.cycles[static_cast<int>(Component::kWal)], 0u);
  EXPECT_GT(agg.cycles[static_cast<int>(Component::kMvcc)], 0u);
  EXPECT_EQ(agg.cycles[static_cast<int>(Component::kGc)], 0u);

  Profiler::Reset();
  agg = Profiler::Aggregate();
  EXPECT_EQ(agg.txn_count, 0u);
  EXPECT_EQ(agg.total_cycles, 0u);
}

TEST(ProfilerTest, DisabledScopesAreFree) {
  Profiler::Reset();
  Profiler::Enable(false);
  {
    TxnScope txn_scope;
    ComponentScope gc(Component::kGc);
  }
  EXPECT_EQ(Profiler::Aggregate().txn_count, 0u);
}

TEST(ProfilerTest, ComponentNames) {
  EXPECT_STREQ(ComponentName(Component::kWal), "WAL");
  EXPECT_STREQ(ComponentName(Component::kLocking), "Locking");
  EXPECT_STREQ(ComponentName(Component::kBufferManager), "BufferManager");
}

TEST(SeparateWalDirTest, WalLandsInConfiguredDirectory) {
  // The paper's Exp 3 places WAL and data on different devices; here:
  // different directories, including crash recovery from the remote dir.
  TestDir data_dir("waldir_data");
  TestDir wal_dir("waldir_wal");
  DatabaseOptions opts;
  opts.path = data_dir.path();
  opts.wal_dir = wal_dir.path() + "/logs";
  opts.workers = 1;
  opts.slots_per_worker = 2;
  RowId rid = 0;
  {
    auto db = Database::Open(opts);
    ASSERT_OK_R(db);
    Schema schema({{"k", ColumnType::kInt64, 0, false}});
    Table* t = db.value()->CreateTable("t", schema).value();
    OpContext ctx;
    ctx.synchronous = true;
    Transaction* txn = db.value()->Begin(db.value()->aux_slot());
    RowBuilder b(&t->schema());
    b.SetInt64(0, 77);
    ASSERT_OK(t->Insert(&ctx, txn, b.Encode().value(), &rid));
    ASSERT_OK(db.value()->Commit(&ctx, txn));

    std::vector<std::string> names;
    ASSERT_OK(Env::Default()->ListDir(opts.wal_dir, &names));
    int wal_files = 0;
    for (const auto& n : names) {
      if (n.rfind("wal_", 0) == 0) ++wal_files;
    }
    EXPECT_GT(wal_files, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    db.value()->TEST_SimulateCrash();
    db.value().release();  // crash
  }
  auto db2 = Database::Open(opts);
  ASSERT_OK_R(db2);
  EXPECT_TRUE(db2.value()->recovery_info().ran);
  Table* t = db2.value()->GetTable("t").value();
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* reader = db2.value()->Begin(db2.value()->aux_slot());
  Slice row;
  ASSERT_OK(t->GetRef(&ctx, reader, rid, &row));
  ASSERT_OK(db2.value()->Commit(&ctx, reader));
  ASSERT_OK(db2.value()->Close());
}

TEST(KeyLimitsTest, OversizedIndexKeyRejected) {
  TestDir dir("keylimits");
  auto pf = PageFile::Open(Env::Default(), dir.path() + "/p.pages");
  ASSERT_OK_R(pf);
  BufferPool::Options opts;
  opts.buffer_bytes = 8ull << 20;
  BufferPool pool(opts, pf.value().get());
  BTreeRegistry registry(&pool);
  auto tree = BTree::Create(&pool, &registry, BTree::TreeKind::kIndex,
                            nullptr, nullptr);
  ASSERT_OK_R(tree);
  OpContext ctx;
  ctx.synchronous = true;
  std::string giant(kMaxKeySize + 1, 'k');
  EXPECT_TRUE(
      tree.value()->IndexInsert(&ctx, giant, 1).IsInvalidArgument());
  std::string max_ok(kMaxKeySize, 'k');
  EXPECT_OK(tree.value()->IndexInsert(&ctx, max_ok, 1));
  uint64_t v = 0;
  EXPECT_OK(tree.value()->IndexLookup(&ctx, max_ok, &v));
}

TEST(OptionsTest, TotalSlotsAndDefaults) {
  DatabaseOptions opts;
  opts.workers = 3;
  opts.slots_per_worker = 5;
  opts.aux_slots = 2;
  EXPECT_EQ(opts.total_slots(), 17u);
  EXPECT_EQ(opts.default_isolation, IsolationLevel::kReadCommitted);
  EXPECT_TRUE(opts.wal_sync);
  EXPECT_TRUE(opts.enable_rfa);
  EXPECT_FALSE(opts.baseline_global_lock_table);
}

TEST(DefaultIsolationTest, BeginDefaultHonorsOption) {
  TestDir dir("default_iso");
  DatabaseOptions opts;
  opts.path = dir.path();
  opts.workers = 1;
  opts.slots_per_worker = 2;
  opts.default_isolation = IsolationLevel::kRepeatableRead;
  auto db = Database::Open(opts);
  ASSERT_OK_R(db);
  Transaction* txn = db.value()->BeginDefault(db.value()->aux_slot());
  EXPECT_EQ(txn->isolation(), IsolationLevel::kRepeatableRead);
  OpContext ctx;
  ctx.synchronous = true;
  ASSERT_OK(db.value()->Commit(&ctx, txn));
  ASSERT_OK(db.value()->Close());
}

}  // namespace
}  // namespace phoebe
