// Ablation for the PAX / frozen-block design: columnar projection scans vs
// row-materializing scans over the same table, hot and frozen tiers.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace phoebe {
namespace {

struct ScanFixture {
  std::string dir;
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  int rows;

  explicit ScanFixture(int rows, bool freeze) : rows(rows) {
    dir = bench::ScratchDir("micro_columnar");
    DatabaseOptions opts;
    opts.path = dir;
    opts.workers = 1;
    opts.slots_per_worker = 4;
    opts.buffer_bytes = 256ull << 20;
    opts.freeze_access_threshold = 1u << 30;
    opts.freeze_epoch_age = 0;
    db = std::move(Database::Open(opts).value());
    Schema schema({{"k", ColumnType::kInt64, 0, false},
                   {"payload", ColumnType::kString, 64, false},
                   {"amount", ColumnType::kInt64, 0, false}});
    table = db->CreateTable("facts", schema).value();
    OpContext ctx;
    ctx.synchronous = true;
    Transaction* txn = db->Begin(db->aux_slot(0));
    for (int i = 0; i < rows; ++i) {
      RowBuilder b(&table->schema());
      b.SetInt64(0, i)
          .SetString(1, "padding-padding-padding-padding-padding")
          .SetInt64(2, i % 1000);
      RowId rid = 0;
      (void)table->Insert(&ctx, txn, b.Encode().value(), &rid);
      if (i % 4096 == 0 && i > 0) {
        (void)db->Commit(&ctx, txn);
        txn = db->Begin(db->aux_slot(0));
      }
    }
    (void)db->Commit(&ctx, txn);
    db->DrainGc();
    if (freeze) {
      for (int i = 0; i < 4; ++i) db->pool()->AdvanceEpoch();
      (void)table->FreezePass(&ctx, 1 << 20);
    }
  }
  ~ScanFixture() {
    db.reset();
    (void)Env::Default()->RemoveDirRecursive(dir);
  }
};

void BM_RowScanSum(benchmark::State& state) {
  ScanFixture f(static_cast<int>(state.range(0)), state.range(1) != 0);
  OpContext ctx;
  ctx.synchronous = true;
  for (auto _ : state) {
    Transaction* txn = f.db->Begin(f.db->aux_slot(1));
    int64_t sum = 0;
    (void)f.table->ScanAllVisible(&ctx, txn,
                                  [&sum, &f](RowId, Slice row) {
                                    sum += RowView(&f.table->schema(),
                                                   row.data())
                                               .GetInt64(2);
                                    return true;
                                  });
    benchmark::DoNotOptimize(sum);
    (void)f.db->Commit(&ctx, txn);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowScanSum)
    ->Args({20000, 0})   // hot rows
    ->Args({20000, 1});  // frozen blocks

void BM_ColumnScanSum(benchmark::State& state) {
  ScanFixture f(static_cast<int>(state.range(0)), state.range(1) != 0);
  OpContext ctx;
  ctx.synchronous = true;
  for (auto _ : state) {
    Transaction* txn = f.db->Begin(f.db->aux_slot(1));
    int64_t sum = 0;
    (void)f.table->ScanColumnInt64(&ctx, txn, 2,
                                   [&sum](RowId, int64_t v) {
                                     sum += v;
                                     return true;
                                   });
    benchmark::DoNotOptimize(sum);
    (void)f.db->Commit(&ctx, txn);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnScanSum)
    ->Args({20000, 0})
    ->Args({20000, 1});

}  // namespace
}  // namespace phoebe
