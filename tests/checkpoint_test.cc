// Checkpoint subsystem tests: the online admission-barrier checkpoint
// (RequestCheckpoint), the GSN watermark that bounds recovery replay, the
// copy-on-write page walk's crash safety at every publication instant, the
// deferred page-free lifecycle, the background checkpointer triggers, and
// the image that eviction and freezing must leave intact until the next
// checkpoint (one tier per row after a crash).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "io/fault_env.h"
#include "tests/eviction_util.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema KvSchema() {
  return Schema({
      {"k", ColumnType::kInt64, 0, false},
      {"v", ColumnType::kString, 64, false},
  });
}

DatabaseOptions MakeOptions(const std::string& path, Env* env) {
  DatabaseOptions opts;
  opts.path = path;
  opts.env = env;
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 4ull << 20;
  opts.checkpoint_quiesce_timeout_ms = 50;
  return opts;
}

/// Commits `n` inserts of (k, "v<k>") for k in [from, from+n) and records
/// them in `model`.
void InsertRows(Database* db, Table* table, std::map<int64_t, std::string>* model,
                int64_t from, int n) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = db->Begin(db->aux_slot(0));
  for (int i = 0; i < n; ++i) {
    int64_t k = from + i;
    std::string v = "v" + std::to_string(k);
    RowBuilder b(&table->schema());
    b.SetInt64(0, k).SetString(1, v);
    RowId rid = 0;
    ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid));
    (*model)[k] = v;
  }
  ASSERT_OK(db->Commit(&ctx, txn));
}

/// Asserts the visible table contents equal `model` exactly.
void VerifyRows(Database* db, Table* table,
                const std::map<int64_t, std::string>& model) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = db->Begin(db->aux_slot(0));
  std::map<int64_t, std::string> found;
  ASSERT_OK(table->ScanAllVisible(
      &ctx, txn, [&](RowId, Slice row) {
        RowView v(&table->schema(), row.data());
        found[v.GetInt64(0)] = v.GetString(1).ToString();
        return true;
      }));
  EXPECT_EQ(found, model);
  ASSERT_OK(db->Commit(&ctx, txn));
}

std::unique_ptr<Database> OpenDb(const std::string& path, Env* env) {
  auto opened = Database::Open(MakeOptions(path, env));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened.value());
}

// --- Recovery bound ----------------------------------------------------------

// The acceptance property of the watermark: the same workload replays
// strictly fewer WAL records when a checkpoint ran before the crash.
TEST(CheckpointTest, RecoveryBoundStrictlyFewerRecords) {
  TestDir dir_plain("ckpt_bound_plain");
  TestDir dir_ckpt("ckpt_bound_ckpt");
  std::map<int64_t, std::string> model;

  auto run = [&](const std::string& path, bool checkpoint, uint64_t* replayed) {
    std::map<int64_t, std::string> m;
    auto db = OpenDb(path, nullptr);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
    InsertRows(db.get(), table, &m, 0, 200);
    if (checkpoint) {
      ASSERT_OK(db->RequestCheckpoint());
      EXPECT_GE(db->checkpoint_stats().completed.load(), 1u);
    }
    InsertRows(db.get(), table, &m, 1000, 50);
    db->TEST_SimulateCrash();
    db.reset();

    auto re = OpenDb(path, nullptr);
    Table* t = re->GetTable("kv").value();
    VerifyRows(re.get(), t, m);
    *replayed = re->recovery_info().records_replayed;
    EXPECT_EQ(re->recovery_info().used_checkpoint, checkpoint);
    ASSERT_OK(re->Close());
    model = m;
  };

  uint64_t full = 0;
  uint64_t bounded = 0;
  run(dir_plain.path(), false, &full);
  run(dir_ckpt.path(), true, &bounded);
  ASSERT_GT(full, 0u);
  EXPECT_LT(bounded, full)
      << "checkpoint did not bound recovery replay (bounded=" << bounded
      << " full=" << full << ")";
}

// --- Watermark skip (crash between catalog rename and WAL truncation) -------

TEST(CheckpointTest, WatermarkSkipsPreCheckpointRecords) {
  TestDir dir("ckpt_watermark");
  FaultInjectionEnv fenv(Env::Default(), 0xA11CE);
  std::map<int64_t, std::string> model;
  {
    auto db = OpenDb(dir.path(), &fenv);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
    InsertRows(db.get(), table, &model, 0, 150);

    // Crash the checkpoint after the new catalog became durable but before
    // the WAL was truncated: recovery must skip everything at or below the
    // watermark instead of re-replaying it onto the checkpoint image.
    db->TEST_SetCheckpointCrashHook(
        [](const char* p) { return strcmp(p, "before_wal_truncate") == 0; });
    Status st = db->RequestCheckpoint();
    EXPECT_TRUE(st.IsAborted()) << st.ToString();
    EXPECT_NE(st.ToString().find("before_wal_truncate"), std::string::npos);
    db->TEST_SetCheckpointCrashHook(nullptr);

    InsertRows(db.get(), table, &model, 2000, 30);
    fenv.ClearFaults();
    db->TEST_SimulateCrash();
    db.reset();
    fenv.DropUnsyncedData(false);
  }
  {
    FaultInjectionEnv fenv2(Env::Default(), 0xA11CF);
    auto db = OpenDb(dir.path(), &fenv2);
    const auto& ri = db->recovery_info();
    EXPECT_TRUE(ri.used_checkpoint);
    EXPECT_GT(ri.watermark_gsn, 0u);
    EXPECT_GT(ri.skipped_checkpointed, 0u)
        << "pre-checkpoint records were not skipped by the watermark";
    Table* t = db->GetTable("kv").value();
    VerifyRows(db.get(), t, model);
    EXPECT_FALSE(db->recovery_info().ToLine().empty());
    ASSERT_OK(db->Close());
  }
}

// --- Quiesce timeout ---------------------------------------------------------

// An in-flight transaction must never be aborted on the checkpoint's
// behalf: RequestCheckpoint times out with kAborted and the workload
// proceeds untouched.
TEST(CheckpointTest, QuiesceTimeoutNeverAbortsWorkload) {
  TestDir dir("ckpt_quiesce");
  auto db = OpenDb(dir.path(), nullptr);
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 10);

  OpContext ctx;
  ctx.synchronous = true;
  Transaction* busy = db->Begin(db->aux_slot(1));
  RowBuilder b(&table->schema());
  b.SetInt64(0, 999).SetString(1, "open");
  RowId rid = 0;
  ASSERT_OK(table->Insert(&ctx, busy, b.Encode().value(), &rid));

  uint64_t timeouts_before = db->checkpoint_stats().quiesce_timeouts.load();
  Status st = db->RequestCheckpoint();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_GT(db->checkpoint_stats().quiesce_timeouts.load(), timeouts_before);

  // The busy transaction is alive and commits normally...
  ASSERT_OK(db->Commit(&ctx, busy));
  model[999] = "open";
  // ...and with the system drained the next attempt succeeds.
  ASSERT_OK(db->RequestCheckpoint());
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u);
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

// --- Crash matrix ------------------------------------------------------------

// Kill the checkpoint at each named instant; recovery must reconstruct the
// exact committed state from whatever the disk holds at that point.
TEST(CheckpointTest, CrashAtEveryPublicationInstant) {
  const char* kPoints[] = {"mid_page_writes", "after_page_writes",
                           "before_catalog_rename", "before_wal_truncate",
                           "after_wal_truncate"};
  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    TestDir dir(std::string("ckpt_crash_") + point);
    FaultInjectionEnv fenv(Env::Default(), 0xBEEF);
    std::map<int64_t, std::string> model;
    {
      auto db = OpenDb(dir.path(), &fenv);
      Table* table = db->CreateTable("kv", KvSchema()).value();
      ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
      InsertRows(db.get(), table, &model, 0, 120);

      db->TEST_SetCheckpointCrashHook(
          [point](const char* p) { return strcmp(p, point) == 0; });
      Status st = db->RequestCheckpoint();
      EXPECT_TRUE(st.IsAborted()) << point << ": " << st.ToString();
      db->TEST_SetCheckpointCrashHook(nullptr);

      fenv.ClearFaults();
      db->TEST_SimulateCrash();
      db.reset();
      fenv.DropUnsyncedData(false);
    }
    {
      FaultInjectionEnv fenv2(Env::Default(), 0xBEF0);
      auto db = OpenDb(dir.path(), &fenv2);
      Table* t = db->GetTable("kv").value();
      VerifyRows(db.get(), t, model);
      ASSERT_OK(db->Close());
    }
  }
}

// --- Stat failures abort, never truncate -------------------------------------

// A failing FileSize() on the frozen-store files must abort the checkpoint:
// recording 0 for a file that exists would truncate valid frozen history on
// the next open.
TEST(CheckpointTest, FrozenStatFailureAbortsCheckpoint) {
  TestDir dir("ckpt_stat_fail");
  FaultInjectionEnv fenv(Env::Default(), 0x57A7);
  auto db = OpenDb(dir.path(), &fenv);
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 40);

  fenv.FailNextFileSize(".manifest");
  Status st = db->RequestCheckpoint();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(db->checkpoint_stats().completed.load(), 0u);

  // The fault was one-shot; the retry publishes normally.
  ASSERT_OK(db->RequestCheckpoint());
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u);
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

// --- Deferred page frees -----------------------------------------------------

TEST(CheckpointTest, DeferredFreesFollowCatalogPublication) {
  TestDir dir("ckpt_frees");
  {
    auto db = OpenDb(dir.path(), nullptr);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    std::map<int64_t, std::string> model;
    InsertRows(db.get(), table, &model, 0, 50);
    // Fresh database: no durable image exists yet, frees recycle eagerly.
    EXPECT_FALSE(db->pool()->page_file()->deferred_frees_enabled());
    ASSERT_OK(db->RequestCheckpoint());
    // A durable image now exists; every later free must wait for the next
    // catalog publication so the image stays self-consistent.
    EXPECT_TRUE(db->pool()->page_file()->deferred_frees_enabled());
    ASSERT_OK(db->Close());
  }
  {
    // Reopening over a clean catalog re-enables deferral before replay.
    auto db = OpenDb(dir.path(), nullptr);
    EXPECT_TRUE(db->pool()->page_file()->deferred_frees_enabled());
    ASSERT_OK(db->Close());
  }
}

// --- Unique-index reconciliation during replay -------------------------------

// Forward operation leaves a deleted row's unique-index entry in place until
// GC purges it (an unlogged step). Replay must reconcile: ReplayDelete drops
// the entry itself, and ReplayInsert reclaims a mapping that still points at
// a dead row — including one baked verbatim into a checkpoint image.
TEST(CheckpointTest, ReplayReclaimsUniqueKeyAfterDeleteReinsert) {
  for (bool checkpoint_between : {false, true}) {
    SCOPED_TRACE(checkpoint_between ? "stale entry in checkpoint image"
                                    : "replay from empty");
    TestDir dir(checkpoint_between ? "ckpt_uniq_image" : "ckpt_uniq_plain");
    auto db = OpenDb(dir.path(), nullptr);
    Table* table = db->CreateTable("kv", KvSchema()).value();
    ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
    OpContext ctx;
    ctx.synchronous = true;

    RowId rid1 = 0;
    {
      Transaction* txn = db->Begin(db->aux_slot(0));
      RowBuilder b(&table->schema());
      b.SetInt64(0, 5).SetString(1, "one");
      ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid1));
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    {
      Transaction* txn = db->Begin(db->aux_slot(0));
      ASSERT_OK(table->Delete(&ctx, txn, rid1));
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    if (checkpoint_between) {
      // The image now carries the tombstoned tuple AND its stale unique
      // entry; the delete record sits below the watermark and is skipped.
      ASSERT_OK(db->RequestCheckpoint());
    }
    // GC purge (unlogged) frees the unique key for the forward re-insert.
    db->DrainGc();
    RowId rid2 = 0;
    {
      Transaction* txn = db->Begin(db->aux_slot(0));
      RowBuilder b(&table->schema());
      b.SetInt64(0, 5).SetString(1, "two");
      ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid2));
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    ASSERT_NE(rid1, rid2);
    db->TEST_SimulateCrash();
    db.reset();

    auto re = OpenDb(dir.path(), nullptr);
    Table* t = re->GetTable("kv").value();
    Transaction* reader = re->Begin(re->aux_slot(0));
    RowId rid = 0;
    Slice row;
    ASSERT_OK(t->IndexGetRef(&ctx, reader, 0, {Value::Int64(5)}, &rid, &row));
    EXPECT_EQ(rid, rid2);
    EXPECT_EQ(RowView(&t->schema(), row.data()).GetString(1), Slice("two"));
    ASSERT_OK(re->Commit(&ctx, reader));
    ASSERT_OK(re->Close());
  }
}

// --- Background checkpointer -------------------------------------------------

TEST(CheckpointTest, BackgroundCheckpointerIntervalTrigger) {
  TestDir dir("ckpt_bg_interval");
  DatabaseOptions opts = MakeOptions(dir.path(), nullptr);
  opts.checkpoint_interval_ms = 20;
  auto opened = Database::Open(opts);
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 100);
  for (int i = 0; i < 200 && db->checkpoint_stats().completed.load() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u)
      << "interval trigger never produced a checkpoint";
  // The workload keeps running against the open admission gate.
  InsertRows(db.get(), table, &model, 5000, 20);
  VerifyRows(db.get(), table, model);
  db->TEST_SimulateCrash();
  db.reset();

  auto re = OpenDb(dir.path(), nullptr);
  EXPECT_TRUE(re->recovery_info().used_checkpoint);
  Table* t = re->GetTable("kv").value();
  VerifyRows(re.get(), t, model);
  ASSERT_OK(re->Close());
}

TEST(CheckpointTest, BackgroundCheckpointerWalByteTrigger) {
  TestDir dir("ckpt_bg_bytes");
  DatabaseOptions opts = MakeOptions(dir.path(), nullptr);
  opts.checkpoint_wal_bytes = 16 << 10;
  auto opened = Database::Open(opts);
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  int64_t next_key = 0;
  for (int i = 0; i < 200 && db->checkpoint_stats().completed.load() == 0;
       ++i) {
    InsertRows(db.get(), table, &model, next_key, 20);
    next_key += 20;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u)
      << "WAL byte trigger never produced a checkpoint";
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

// A transaction held open across the trigger makes the background attempt
// time out; the checkpointer must back off and succeed after the commit.
TEST(CheckpointTest, BackgroundCheckpointerBacksOffUnderLoad) {
  TestDir dir("ckpt_bg_backoff");
  DatabaseOptions opts = MakeOptions(dir.path(), nullptr);
  opts.checkpoint_interval_ms = 15;
  opts.checkpoint_quiesce_timeout_ms = 10;
  auto opened = Database::Open(opts);
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* table = db->CreateTable("kv", KvSchema()).value();
  std::map<int64_t, std::string> model;
  InsertRows(db.get(), table, &model, 0, 20);

  OpContext ctx;
  ctx.synchronous = true;
  Transaction* busy = db->Begin(db->aux_slot(1));
  RowBuilder b(&table->schema());
  b.SetInt64(0, 777).SetString(1, "busy");
  RowId rid = 0;
  ASSERT_OK(table->Insert(&ctx, busy, b.Encode().value(), &rid));
  for (int i = 0; i < 100 && db->checkpoint_stats().quiesce_timeouts.load() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(db->checkpoint_stats().quiesce_timeouts.load(), 1u);
  EXPECT_EQ(db->checkpoint_stats().completed.load(), 0u);

  ASSERT_OK(db->Commit(&ctx, busy));
  model[777] = "busy";
  for (int i = 0; i < 300 && db->checkpoint_stats().completed.load() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(db->checkpoint_stats().completed.load(), 1u)
      << "checkpointer never recovered after backoff";
  VerifyRows(db.get(), table, model);
  ASSERT_OK(db->Close());
}

// --- One tier per row across a crash ----------------------------------------

// Every committed row must come back exactly once, in exactly one tier, after
// a crash that follows a checkpoint. Two things can break that: eviction
// overwriting a page of the published image (the image then mixes pre- and
// post-checkpoint state, e.g. an inner node that lost its detached leaves
// while the frozen files are truncated back to the checkpoint), and a freeze
// that leaves a written block next to a live leaf.

Schema PadSchema() {
  return Schema({
      {"k", ColumnType::kInt64, 0, false},
      {"pad", ColumnType::kString, 200, false},
  });
}

constexpr int64_t kMatrixRows = 120000;
constexpr int kMatrixBatch = 1000;
constexpr int kMatrixFreezeLeaves = 40;

std::string PadValue(int64_t k, int version) {
  std::string v = "k" + std::to_string(k) + "v" + std::to_string(version);
  v.resize(200, static_cast<char>('a' + k % 26));
  return v;
}

uint64_t MatrixSeed() {
  // --gtest_random_seed=N runs another seed.
  int seed = ::testing::GTEST_FLAG(random_seed);
  return seed == 0 ? 1 : static_cast<uint64_t>(seed);
}

DatabaseOptions MatrixOptions(const std::string& path) {
  DatabaseOptions opts = MakeOptions(path, nullptr);
  opts.buffer_bytes = 96ull << 20;  // the whole table stays resident
  opts.freeze_access_threshold = 1u << 30;
  opts.freeze_epoch_age = 0;
  return opts;
}

/// Sets `pad` of each key in `keys` to its next version (one transaction per
/// batch) and records it in `model`.
void UpdateKeys(Database* db, Table* t, const std::vector<int64_t>& keys,
                int version, std::map<int64_t, std::string>* model) {
  OpContext ctx;
  ctx.synchronous = true;
  for (size_t i = 0; i < keys.size(); i += kMatrixBatch) {
    Transaction* txn = db->Begin(db->aux_slot(0));
    for (size_t j = i; j < std::min(keys.size(), i + kMatrixBatch); ++j) {
      RowId rid = 0;
      ASSERT_OK(t->IndexGetRef(&ctx, txn, 0, {Value::Int64(keys[j])}, &rid,
                               nullptr));
      std::string v = PadValue(keys[j], version);
      ASSERT_OK(t->Update(&ctx, txn, rid, {{1, Value::String(v)}}));
      (*model)[keys[j]] = v;
    }
    ASSERT_OK(db->Commit(&ctx, txn));
  }
}

void DeleteKey(Database* db, Table* t, int64_t k,
               std::map<int64_t, std::string>* model) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = db->Begin(db->aux_slot(0));
  RowId rid = 0;
  ASSERT_OK(t->IndexGetRef(&ctx, txn, 0, {Value::Int64(k)}, &rid, nullptr));
  ASSERT_OK(t->Delete(&ctx, txn, rid));
  ASSERT_OK(db->Commit(&ctx, txn));
  model->erase(k);
}

/// Checks the recovered table against `model`: each key once in a full scan
/// with its value, each key found through the unique index, and no live
/// tree slot at or below the frozen watermark.
void VerifyOneTier(Database* db, Table* t,
                   const std::map<int64_t, std::string>& model) {
  OpContext ctx;
  ctx.synchronous = true;
  std::map<int64_t, std::string> seen;
  size_t duplicates = 0;
  Transaction* txn = db->Begin(db->aux_slot(0));
  ASSERT_OK(t->ScanAllVisible(&ctx, txn, [&](RowId, Slice row) {
    RowView v(&t->schema(), row.data());
    if (!seen.emplace(v.GetInt64(0), v.GetString(1).ToString()).second) {
      ++duplicates;
    }
    return true;
  }));
  ASSERT_OK(db->Commit(&ctx, txn));
  size_t lost = 0;
  size_t wrong = 0;
  for (const auto& [k, v] : model) {
    auto it = seen.find(k);
    if (it == seen.end()) {
      ++lost;
    } else if (it->second != v) {
      ++wrong;
    }
  }
  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(lost, 0u) << "of " << model.size() << " committed rows";
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(seen.size(), model.size());

  size_t misses = 0;
  auto it = model.begin();
  while (it != model.end()) {
    txn = db->Begin(db->aux_slot(0));
    for (int i = 0; i < kMatrixBatch && it != model.end(); ++i, ++it) {
      RowId rid = 0;
      Slice row;
      Status st =
          t->IndexGetRef(&ctx, txn, 0, {Value::Int64(it->first)}, &rid, &row);
      if (!st.ok() ||
          RowView(&t->schema(), row.data()).GetString(1) != Slice(it->second)) {
        ++misses;
      }
    }
    ASSERT_OK(db->Commit(&ctx, txn));
  }
  EXPECT_EQ(misses, 0u) << "of " << model.size() << " index lookups";

  const RowId watermark = t->frozen()->max_frozen_row_id();
  size_t below = 0;
  ASSERT_OK(t->tree()->ForEachTableLeaf(&ctx, [&](TableLeaf& leaf,
                                                  BufferFrame*) {
    for (uint16_t s = 0; s < leaf.capacity(); ++s) {
      if (leaf.IsLive(s) && leaf.first_row_id() + s <= watermark) ++below;
    }
    return true;
  }));
  EXPECT_EQ(below, 0u) << "live tree slots at or below watermark "
                       << watermark;
}

struct MatrixCase {
  bool checkpoint_empty;  // checkpoint before any row, then a mixed history
  bool force_eviction;
};

class OneTierCrashTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(OneTierCrashTest, CommittedRowsSurviveInOneTier) {
  const MatrixCase mc = GetParam();
  const uint64_t seed = MatrixSeed();
  SCOPED_TRACE("seed " + std::to_string(seed));
  Random rng(seed);
  TestDir dir(std::string("ckpt_one_tier_") +
              (mc.checkpoint_empty ? "empty_" : "full_") +
              (mc.force_eviction ? "evict" : "resident"));
  std::map<int64_t, std::string> model;
  {
    auto opened = Database::Open(MatrixOptions(dir.path()));
    ASSERT_OK_R(opened);
    auto db = std::move(opened.value());
    Table* t = db->CreateTable("pad", PadSchema()).value();
    ASSERT_OK(db->CreateIndex("pad", "pad_pk", {0}, true));
    if (mc.checkpoint_empty) ASSERT_OK(db->RequestCheckpoint());

    OpContext ctx;
    ctx.synchronous = true;
    for (int64_t from = 0; from < kMatrixRows; from += kMatrixBatch) {
      Transaction* txn = db->Begin(db->aux_slot(0));
      for (int64_t k = from; k < from + kMatrixBatch; ++k) {
        RowBuilder b(&t->schema());
        std::string v = PadValue(k, 0);
        b.SetInt64(0, k).SetString(1, v);
        RowId rid = 0;
        ASSERT_OK(t->Insert(&ctx, txn, b.Encode().value(), &rid));
        model[k] = v;
      }
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    ASSERT_GE(t->tree()->Height(&ctx), 3);

    if (mc.checkpoint_empty) {
      std::vector<int64_t> keys;
      for (int i = 0; i < 500; ++i) {
        keys.push_back(static_cast<int64_t>(rng.Uniform(kMatrixRows)));
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      UpdateKeys(db.get(), t, keys, 1, &model);
      DeleteKey(db.get(), t, 1 + static_cast<int64_t>(rng.Uniform(999)),
                &model);
      DeleteKey(db.get(), t, 60000 + static_cast<int64_t>(rng.Uniform(1000)),
                &model);
    } else {
      db->DrainGc();
      ASSERT_OK(db->RequestCheckpoint());
    }

    db->DrainGc();
    Result<int> frozen = t->FreezePass(&ctx, kMatrixFreezeLeaves);
    ASSERT_OK_R(frozen);
    ASSERT_EQ(frozen.value(), kMatrixFreezeLeaves);
    const int64_t watermark =
        static_cast<int64_t>(t->frozen()->max_frozen_row_id());
    ASSERT_GT(watermark, 1000);

    if (mc.checkpoint_empty) {
      // Warm one frozen row (an update moves it to a fresh hot row id),
      // then delete another straight out of the frozen tier.
      int64_t warm = 1000 + static_cast<int64_t>(rng.Uniform(watermark / 2));
      int64_t gone = warm + 1;
      UpdateKeys(db.get(), t, {warm}, 2, &model);
      DeleteKey(db.get(), t, gone, &model);
      db->DrainGc();
    }
    if (mc.force_eviction) {
      EXPECT_GT(ForceEviction(db.get(), seed), 0);
    }
    db->TEST_SimulateCrash();
  }
  auto opened = Database::Open(MatrixOptions(dir.path()));
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* t = db->GetTable("pad").value();
  VerifyOneTier(db.get(), t, model);
  ASSERT_OK(db->Close());
}

INSTANTIATE_TEST_SUITE_P(
    CheckpointTest, OneTierCrashTest,
    ::testing::Values(MatrixCase{false, true}, MatrixCase{false, false},
                      MatrixCase{true, true}, MatrixCase{true, false}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = info.param.checkpoint_empty ? "CheckpointEmpty"
                                                     : "FreezeAfterCheckpoint";
      return name + (info.param.force_eviction ? "_Evicted" : "_Resident");
    });

// Between two checkpoints eviction copies each page of the published image
// at most once and never writes over it: the image's bytes stay identical,
// and the file grows by at most one copy of it however often the same
// pages are dirtied and evicted again.
TEST(CheckpointTest, EvictionCopiesEachImagePageAtMostOnce) {
  TestDir dir("ckpt_copy_once");
  constexpr int64_t kRows = 20000;
  std::map<int64_t, std::string> model;
  {
    auto opened = Database::Open(MatrixOptions(dir.path()));
    ASSERT_OK_R(opened);
    auto db = std::move(opened.value());
    Table* t = db->CreateTable("pad", PadSchema()).value();
    ASSERT_OK(db->CreateIndex("pad", "pad_pk", {0}, true));
    std::vector<int64_t> keys;
    OpContext ctx;
    ctx.synchronous = true;
    for (int64_t from = 0; from < kRows; from += kMatrixBatch) {
      Transaction* txn = db->Begin(db->aux_slot(0));
      for (int64_t k = from; k < from + kMatrixBatch; ++k) {
        RowBuilder b(&t->schema());
        b.SetInt64(0, k).SetString(1, PadValue(k, 0));
        RowId rid = 0;
        ASSERT_OK(t->Insert(&ctx, txn, b.Encode().value(), &rid));
      }
      ASSERT_OK(db->Commit(&ctx, txn));
    }
    ASSERT_OK(db->Close());
  }

  auto read_file = [&] {
    std::string bytes;
    std::unique_ptr<File> f;
    Env::OpenOptions fo;
    EXPECT_OK(Env::Default()->OpenFile(dir.path() + "/data.pages", fo, &f));
    bytes.resize(f->Size());
    size_t got = 0;
    EXPECT_OK(f->Read(0, bytes.size(), bytes.data(), &got));
    bytes.resize(got);
    return bytes;
  };
  const std::string image = read_file();
  ASSERT_GT(image.size(), 0u);

  auto opened = Database::Open(MatrixOptions(dir.path()));
  ASSERT_OK_R(opened);
  auto db = std::move(opened.value());
  Table* t = db->GetTable("pad").value();
  PageFile* file = db->pool()->page_file();
  ASSERT_TRUE(file->deferred_frees_enabled());
  const uint64_t image_pages = file->num_pages();
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < kRows; ++k) keys.push_back(k);
  for (int round = 1; round <= 5; ++round) {
    UpdateKeys(db.get(), t, keys, round, &model);
    db->DrainGc();
    EXPECT_GT(ForceEviction(db.get(), round), 0);
  }
  const uint64_t grown = file->num_pages() - image_pages;
  RecordProperty("image_pages", static_cast<int>(image_pages));
  RecordProperty("grown_pages", static_cast<int>(grown));
  EXPECT_GT(grown, 0u);
  EXPECT_LE(grown, image_pages)
      << "eviction copied image pages more than once";
  const std::string after = read_file();
  ASSERT_GE(after.size(), image.size());
  EXPECT_TRUE(after.compare(0, image.size(), image) == 0)
      << "eviction overwrote a page of the published checkpoint image";
  db->TEST_SimulateCrash();
  db.reset();

  auto re = Database::Open(MatrixOptions(dir.path()));
  ASSERT_OK_R(re);
  Table* rt = re.value()->GetTable("pad").value();
  VerifyOneTier(re.value().get(), rt, model);
  ASSERT_OK(re.value()->Close());
}

}  // namespace
}  // namespace phoebe
