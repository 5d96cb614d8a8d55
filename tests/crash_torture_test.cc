// Crash-torture harness: a seeded loop of workload -> injected fault or
// simulated crash -> reopen -> invariant check, cycling through five fault
// modes on one long-lived database directory:
//
//   mode 0: crash with a seeded torn WAL tail (sector-aligned prefix of the
//           unsynced tail survives, last surviving sector garbled);
//   mode 1: commits acknowledged with fsync disabled, then crash — each such
//           key must be present-with-its-value or absent ("fuzzy"), never
//           corrupt;
//   mode 2: sticky fsync failure mid-run — the engine must go fail-stop and
//           reject every subsequent commit with kUnavailable (read-only ones
//           included), then survive the crash;
//   mode 3: transient read errors + bit-flip corruption during verification —
//           retry and CRC re-read must absorb every fault;
//   mode 4: hand-torn WAL tail (garbage appended past the valid records) —
//           recovery must keep the clean prefix and report a torn tail.
//
// Invariants checked after every reopen: committed rows match the model
// exactly, uncommitted zombies never resurrect, fuzzy keys are all-or-nothing,
// and reopen itself never fails.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "io/fault_env.h"
#include "io/io_stats.h"
#include "tests/eviction_util.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

constexpr int kItersPerSeed = 12;  // x5 seeds = 60 crash/reopen cycles

// Key ranges. Workload churn lives in [0, 200); the others are disjoint so
// verification can classify every row it sees.
constexpr int64_t kBaseKeyStart = 10000;     // bulk rows read under mode 3
constexpr int kBaseRows = 800;
constexpr int64_t kFuzzyKeyStart = 20000;    // unsynced / rejected commits
constexpr int64_t kZombieKeyStart = 100000;  // in-flight at crash: must vanish

Schema KvSchema() {
  return Schema({
      {"k", ColumnType::kInt64, 0, false},
      {"v", ColumnType::kString, 256, false},
  });
}

struct Model {
  std::map<int64_t, std::string> rows;  // k -> v for rows known committed
  std::map<int64_t, RowId> rids;
  // Insert-only keys whose commit fate was unknown at crash time: after
  // reopen each must be present with exactly this value, or absent.
  std::map<int64_t, std::string> fuzzy;
};

DatabaseOptions MakeOptions(const std::string& path, Env* env) {
  DatabaseOptions opts;
  opts.path = path;
  opts.env = env;
  opts.workers = 2;
  opts.slots_per_worker = 4;
  opts.buffer_bytes = 4ull << 20;
  return opts;
}

std::string BaseValue(int64_t k) {
  return std::string(160, 'b') + std::to_string(k);
}

/// Adjudicates last crash's fuzzy keys: adopt survivors into the model,
/// confirm the rest are absent. Corrupt or partial values fail the test.
void ResolveFuzzy(Database* db, Table* table, Model* model) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* reader = db->Begin(db->aux_slot(0));
  for (const auto& [k, v] : model->fuzzy) {
    RowId rid = 0;
    Slice row;
    Status st =
        table->IndexGetRef(&ctx, reader, 0, {Value::Int64(k)}, &rid, &row);
    if (st.ok()) {
      EXPECT_EQ(RowView(&table->schema(), row.data()).GetString(1), Slice(v))
          << "fuzzy key " << k << " resurfaced with a corrupt value";
      model->rows[k] = v;
      model->rids[k] = rid;
    } else {
      EXPECT_TRUE(st.IsNotFound()) << st.ToString();
    }
  }
  model->fuzzy.clear();
  ASSERT_OK(db->Commit(&ctx, reader));
}

/// Full-state check: visible rows == model (zombies must be gone), and the
/// primary index agrees key by key.
void VerifyModel(Database* db, Table* table, const Model& model) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* reader = db->Begin(db->aux_slot(0));
  std::map<int64_t, std::string> found;
  ASSERT_OK(table->ScanAllVisible(
      &ctx, reader, [&](RowId, Slice row) {
        RowView v(&table->schema(), row.data());
        int64_t k = v.GetInt64(0);
        if (k >= kZombieKeyStart) {
          ADD_FAILURE() << "uncommitted zombie row survived: k=" << k;
        } else {
          found[k] = v.GetString(1).ToString();
        }
        return true;
      }));
  EXPECT_EQ(found, model.rows);
  for (const auto& [k, v] : model.rows) {
    RowId rid = 0;
    Slice row;
    ASSERT_OK(
        table->IndexGetRef(&ctx, reader, 0, {Value::Int64(k)}, &rid, &row));
    EXPECT_EQ(RowView(&table->schema(), row.data()).GetString(1), Slice(v));
  }
  ASSERT_OK(db->Commit(&ctx, reader));
}

/// Random committed/aborted churn over keys [0, 200); optionally leaves
/// in-flight zombie inserts (keys >= kZombieKeyStart) on spare aux slots.
void RunWorkload(Database* db, Table* table, Model* model, Random* rng,
                 int steps, bool allow_zombies) {
  OpContext ctx;
  ctx.synchronous = true;
  std::vector<uint32_t> zombie_slots;
  if (allow_zombies) {
    for (uint32_t i = 2; i < db->options().aux_slots; ++i) {
      zombie_slots.push_back(db->aux_slot(i));
    }
  }
  for (int s = 0; s < steps; ++s) {
    Transaction* txn = db->Begin(db->aux_slot(0));
    Model pending = *model;
    int ops = 1 + static_cast<int>(rng->Uniform(4));
    bool ok = true;
    for (int o = 0; o < ops && ok; ++o) {
      int64_t k = static_cast<int64_t>(rng->Uniform(200));
      int action = static_cast<int>(rng->Uniform(3));
      auto it = pending.rows.find(k);
      if (action == 0 || it == pending.rows.end()) {
        if (it != pending.rows.end()) continue;
        RowBuilder b(&table->schema());
        std::string v = "v" + std::to_string(rng->Next() % 100000);
        b.SetInt64(0, k).SetString(1, v);
        RowId rid = 0;
        Status st = table->Insert(&ctx, txn, b.Encode().value(), &rid);
        if (!st.ok()) {
          ok = false;
          break;
        }
        pending.rows[k] = v;
        pending.rids[k] = rid;
      } else if (action == 1) {
        std::string v = "u" + std::to_string(rng->Next() % 100000);
        Status st =
            table->Update(&ctx, txn, pending.rids[k], {{1, Value::String(v)}});
        if (!st.ok()) {
          ok = false;
          break;
        }
        pending.rows[k] = v;
      } else {
        Status st = table->Delete(&ctx, txn, pending.rids[k]);
        if (!st.ok()) {
          ok = false;
          break;
        }
        pending.rows.erase(k);
        pending.rids.erase(k);
      }
    }
    int fate = static_cast<int>(rng->Uniform(100));
    if (!ok || fate < 15) {
      ASSERT_OK(db->Abort(&ctx, txn));
    } else if (fate < 30 && !zombie_slots.empty()) {
      ASSERT_OK(db->Abort(&ctx, txn));
      uint32_t slot = zombie_slots.back();
      zombie_slots.pop_back();
      Transaction* zombie = db->Begin(slot);
      int64_t k = kZombieKeyStart + static_cast<int64_t>(rng->Uniform(1000));
      RowBuilder b(&table->schema());
      b.SetInt64(0, k).SetString(1, "zombie");
      RowId rid = 0;
      (void)table->Insert(&ctx, zombie, b.Encode().value(), &rid);
      // Left in flight: the crash must erase it.
    } else {
      ASSERT_OK(db->Commit(&ctx, txn));
      *model = std::move(pending);
    }
  }
}

/// Commits one insert of (k, v) on `slot`; returns the commit status.
Status CommitOneInsert(Database* db, Table* table, uint32_t slot, int64_t k,
                       const std::string& v) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = db->Begin(slot);
  RowBuilder b(&table->schema());
  b.SetInt64(0, k).SetString(1, v);
  RowId rid = 0;
  Status st = table->Insert(&ctx, txn, b.Encode().value(), &rid);
  if (!st.ok()) return st;
  return db->Commit(&ctx, txn);
}

void AppendGarbage(const std::string& path, size_t n) {
  std::unique_ptr<File> f;
  Env::OpenOptions fo;
  ASSERT_OK(Env::Default()->OpenFile(path, fo, &f));
  ASSERT_OK(f->Append(std::string(n, '\xEE')));
}

class CrashTortureTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashTortureTest, SeededFaultAndCrashLoop) {
  TestDir dir("crash_torture_" + std::to_string(GetParam()));
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 6700417 + 17;
  Random rng(static_cast<uint32_t>(seed));
  Model model;
  int64_t next_fuzzy_key = kFuzzyKeyStart;
  bool expect_torn_tail = false;

  for (int iter = 0; iter < kItersPerSeed; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    FaultInjectionEnv fenv(Env::Default(), seed * 1000003 + iter);
    auto opened = Database::Open(MakeOptions(dir.path(), &fenv));
    ASSERT_OK_R(opened);
    std::unique_ptr<Database> db = std::move(opened.value());

    Table* table = nullptr;
    if (iter == 0) {
      table = db->CreateTable("kv", KvSchema()).value();
      ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
      // Bulk rows so mode 3 has enough cold pages to read under fault.
      OpContext ctx;
      ctx.synchronous = true;
      Transaction* txn = db->Begin(db->aux_slot(0));
      for (int i = 0; i < kBaseRows; ++i) {
        int64_t k = kBaseKeyStart + i;
        RowBuilder b(&table->schema());
        b.SetInt64(0, k).SetString(1, BaseValue(k));
        RowId rid = 0;
        ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid));
        model.rows[k] = BaseValue(k);
        model.rids[k] = rid;
      }
      ASSERT_OK(db->Commit(&ctx, txn));
    } else {
      auto t = db->GetTable("kv");
      ASSERT_OK_R(t);
      table = t.value();
    }

    if (expect_torn_tail) {
      EXPECT_GE(db->recovery_info().torn_tails, 1u)
          << "hand-torn WAL tail was not detected by recovery";
      expect_torn_tail = false;
    }

    ResolveFuzzy(db.get(), table, &model);
    VerifyModel(db.get(), table, model);

    const int mode = iter % 5;
    const bool zombies = (mode == 0 || mode == 1 || mode == 4);
    RunWorkload(db.get(), table, &model, &rng, 20, zombies);

    bool torn_drop = false;
    switch (mode) {
      case 0:
        // Plain crash with a seeded torn tail on whatever was unsynced.
        torn_drop = true;
        break;
      case 1: {
        // Commits acknowledged without fsync: fate decided by the crash.
        db->wal()->set_sync_on_flush(false);
        for (int j = 0; j < 2; ++j) {
          int64_t k = next_fuzzy_key++;
          std::string v = "fz" + std::to_string(k);
          ASSERT_OK(CommitOneInsert(db.get(), table, db->aux_slot(0), k, v));
          model.fuzzy[k] = v;
        }
        // One synced commit retroactively hardens the appends above...
        db->wal()->set_sync_on_flush(true);
        {
          int64_t k = next_fuzzy_key++;
          std::string v = "fz" + std::to_string(k);
          ASSERT_OK(CommitOneInsert(db.get(), table, db->aux_slot(0), k, v));
          model.fuzzy[k] = v;
        }
        // ...and these last ones stay unsynced and should not survive.
        db->wal()->set_sync_on_flush(false);
        for (int j = 0; j < 2; ++j) {
          int64_t k = next_fuzzy_key++;
          std::string v = "fz" + std::to_string(k);
          ASSERT_OK(CommitOneInsert(db.get(), table, db->aux_slot(0), k, v));
          model.fuzzy[k] = v;
        }
        break;
      }
      case 2: {
        // Sticky fsync failure: the engine must fail-stop and reject every
        // commit attempted after the fault with kUnavailable. Each probe
        // uses its own aux slot (a rejected commit leaves its slot busy).
        uint64_t sync_failures_before =
            IoStats::Global().wal_sync_failures.load();
        const int64_t first_rejected = next_fuzzy_key;
        fenv.FailAllSyncs(true);
        for (int p = 0; p < 6; ++p) {
          int64_t k = next_fuzzy_key++;
          std::string v = "fz" + std::to_string(k);
          Status st =
              CommitOneInsert(db.get(), table, db->aux_slot(1 + p), k, v);
          EXPECT_TRUE(st.IsUnavailable())
              << "commit " << p << " after fsync failure returned: "
              << st.ToString();
          model.fuzzy[k] = v;
        }
        EXPECT_TRUE(db->wal()->fail_stopped());
        EXPECT_TRUE(db->wal()->fail_stop_status().IsUnavailable());
        EXPECT_GT(IoStats::Global().wal_sync_failures.load(),
                  sync_failures_before);
        // Fail-stop must be sticky even after the device "recovers".
        fenv.ClearFaults();
        {
          int64_t k = next_fuzzy_key++;
          Status st = CommitOneInsert(db.get(), table, db->aux_slot(7), k,
                                      "fz" + std::to_string(k));
          EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
          model.fuzzy[k] = "fz" + std::to_string(k);
        }
        // Read-only probes are rejected too, in both execution modes. Each
        // reads the first rejected key: when that commit was prepared before
        // fail-stop, its version is visible but its slot never finishes.
        // Worker slots are free here (no scheduler runs in this harness).
        for (uint32_t slot = 0; slot < 2; ++slot) {
          OpContext ctx;
          ctx.synchronous = slot == 0;
          Transaction* reader = db->Begin(slot);
          RowId rid = 0;
          Slice row;
          Status rs = table->IndexGetRef(
              &ctx, reader, 0, {Value::Int64(first_rejected)}, &rid, &row);
          EXPECT_TRUE(rs.ok() || rs.IsNotFound()) << rs.ToString();
          Status st = db->Commit(&ctx, reader);
          EXPECT_TRUE(st.IsUnavailable())
              << "read-only commit after fail-stop returned: "
              << st.ToString();
          EXPECT_OK(db->Abort(&ctx, reader));
        }
        break;
      }
      case 3: {
        // Clean restart, then verify the whole database through a storm of
        // transient read errors and bit flips: retry + CRC re-read must
        // absorb every one of them.
        ASSERT_OK(db->Close());
        db.reset();
        auto reopened = Database::Open(MakeOptions(dir.path(), &fenv));
        ASSERT_OK_R(reopened);
        db = std::move(reopened.value());
        auto t = db->GetTable("kv");
        ASSERT_OK_R(t);
        table = t.value();
        uint64_t retries_before = IoStats::Global().read_retries.load();
        uint64_t rereads_before = IoStats::Global().crc_rereads.load();
        fenv.SetReadErrorEvery(4);
        fenv.SetBitFlipEvery(7);
        VerifyModel(db.get(), table, model);
        fenv.ClearFaults();
        EXPECT_GT(IoStats::Global().read_retries.load(), retries_before)
            << "no transient read error was actually absorbed";
        EXPECT_GT(IoStats::Global().crc_rereads.load(), rereads_before)
            << "no bit flip was actually healed by a CRC re-read";
        break;
      }
      case 4:
        // Hand-torn WAL tail, asserted at the next reopen.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        expect_torn_tail = true;
        break;
    }

    // Crash: suppress clean shutdown, destroy (joins threads; the WAL
    // destructor may still append unsynced bytes), then drop everything
    // unsynced — the moral equivalent of a dirty OS page cache dying.
    fenv.ClearFaults();
    db->TEST_SimulateCrash();
    db.reset();
    fenv.DropUnsyncedData(torn_drop);
    if (mode == 4) {
      AppendGarbage(dir.path() + "/wal/wal_0.log", 13);
    }
  }

  // Final reopen on the pristine Env: the directory must still be fully
  // consistent after the whole gauntlet.
  auto db = Database::Open(MakeOptions(dir.path(), nullptr));
  ASSERT_OK_R(db);
  auto t = db.value()->GetTable("kv");
  ASSERT_OK_R(t);
  if (expect_torn_tail) {
    EXPECT_GE(db.value()->recovery_info().torn_tails, 1u);
  }
  ResolveFuzzy(db.value().get(), t.value(), &model);
  VerifyModel(db.value().get(), t.value(), model);
  ASSERT_OK(db.value()->Close());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashTortureTest, ::testing::Range(0, 5));

// --- Kill-mid-checkpoint torture ---------------------------------------------
//
// Every iteration runs committed churn, then kills an online checkpoint at a
// seeded publication instant (between page writes, before/after the catalog
// rename, before/after WAL truncation) via the crash hook, simulates a crash
// with unsynced data dropped, reopens, and verifies the model exactly.
// Periodically a checkpoint is allowed to complete so later iterations crash
// on top of a real image + watermark rather than a fresh directory. Every
// other iteration evicts the whole buffer before the torn checkpoint, so
// dirty pages reach the disk outside the checkpoint walk and its data-file
// sync makes them durable: they must never land on a page of the image the
// crash falls back to.

constexpr const char* kCkptPoints[] = {
    "mid_page_writes", "after_page_writes", "before_catalog_rename",
    "before_wal_truncate", "after_wal_truncate"};

class CheckpointTortureTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointTortureTest, KillMidCheckpointLoop) {
  TestDir dir("ckpt_torture_" + std::to_string(GetParam()));
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 2654435761 + 99;
  Random rng(static_cast<uint32_t>(seed));
  Model model;
  int evicted = 0;

  for (int iter = 0; iter < kItersPerSeed; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    FaultInjectionEnv fenv(Env::Default(), seed * 7919 + iter);
    auto opened = Database::Open(MakeOptions(dir.path(), &fenv));
    ASSERT_OK_R(opened);
    std::unique_ptr<Database> db = std::move(opened.value());

    Table* table = nullptr;
    if (iter == 0) {
      table = db->CreateTable("kv", KvSchema()).value();
      ASSERT_OK(db->CreateIndex("kv", "kv_pk", {0}, true));
      OpContext ctx;
      ctx.synchronous = true;
      Transaction* txn = db->Begin(db->aux_slot(0));
      for (int i = 0; i < 200; ++i) {
        int64_t k = kBaseKeyStart + i;
        RowBuilder b(&table->schema());
        b.SetInt64(0, k).SetString(1, BaseValue(k));
        RowId rid = 0;
        ASSERT_OK(table->Insert(&ctx, txn, b.Encode().value(), &rid));
        model.rows[k] = BaseValue(k);
        model.rids[k] = rid;
      }
      ASSERT_OK(db->Commit(&ctx, txn));
    } else {
      auto t = db->GetTable("kv");
      ASSERT_OK_R(t);
      table = t.value();
    }
    VerifyModel(db.get(), table, model);

    RunWorkload(db.get(), table, &model, &rng, 15, /*allow_zombies=*/false);

    // Let every third attempt land so later crashes hit a directory that
    // already carries a checkpoint image and a non-zero watermark.
    if (iter % 3 == 2) {
      ASSERT_OK(db->RequestCheckpoint());
      RunWorkload(db.get(), table, &model, &rng, 10, /*allow_zombies=*/false);
    }

    if (iter % 2 == 1) {
      db->DrainGc();
      evicted += ForceEviction(db.get(), seed + iter);
    }

    const char* point = kCkptPoints[rng.Uniform(5)];
    SCOPED_TRACE(std::string("crash point ") + point);
    db->TEST_SetCheckpointCrashHook(
        [point](const char* p) { return strcmp(p, point) == 0; });
    Status st = db->RequestCheckpoint();
    EXPECT_TRUE(st.IsAborted()) << st.ToString();
    db->TEST_SetCheckpointCrashHook(nullptr);

    // Committed work after the torn checkpoint must survive the crash too
    // (its records sit above the watermark when the rename landed).
    RunWorkload(db.get(), table, &model, &rng, 8, /*allow_zombies=*/false);

    fenv.ClearFaults();
    db->TEST_SimulateCrash();
    db.reset();
    fenv.DropUnsyncedData(false);
  }

  auto db = Database::Open(MakeOptions(dir.path(), nullptr));
  ASSERT_OK_R(db);
  auto t = db.value()->GetTable("kv");
  ASSERT_OK_R(t);
  VerifyModel(db.value().get(), t.value(), model);
  ASSERT_OK(db.value()->Close());
  EXPECT_GT(evicted, 0) << "no iteration evicted a page before its crash";
  RecordProperty("evictions", evicted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointTortureTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace phoebe
