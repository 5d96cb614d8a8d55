// B-Tree operation costs: point lookup, insert, short range scan, and the
// table-leaf PAX row paths.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/coding.h"
#include "storage/btree.h"
#include "tpcc/tpcc_schema.h"

namespace phoebe {
namespace {

struct TreeFixture {
  std::string dir;
  std::unique_ptr<PageFile> page_file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTreeRegistry> registry;
  std::unique_ptr<BTree> tree;
  OpContext ctx;

  explicit TreeFixture(uint64_t preload) {
    dir = bench::ScratchDir("micro_btree");
    page_file = std::move(PageFile::Open(Env::Default(), dir + "/d.pages").value());
    BufferPool::Options opts;
    opts.buffer_bytes = 256ull << 20;
    pool = std::make_unique<BufferPool>(opts, page_file.get());
    registry = std::make_unique<BTreeRegistry>(pool.get());
    auto created = BTree::Create(pool.get(), registry.get(),
                                 BTree::TreeKind::kIndex, nullptr, nullptr);
    tree = std::move(created.value());
    ctx.synchronous = true;
    for (uint64_t i = 0; i < preload; ++i) {
      (void)tree->IndexInsert(&ctx, Key(i), i);
    }
  }
  ~TreeFixture() {
    tree.reset();
    registry.reset();
    pool.reset();
    page_file.reset();
    (void)Env::Default()->RemoveDirRecursive(dir);
  }

  static std::string Key(uint64_t v) {
    std::string k(8, '\0');
    EncodeBigEndian64(k.data(), v);
    return k;
  }
};

void BM_BTreeLookup(benchmark::State& state) {
  TreeFixture f(static_cast<uint64_t>(state.range(0)));
  Random rng(1);
  for (auto _ : state) {
    uint64_t v = 0;
    benchmark::DoNotOptimize(
        f.tree->IndexLookup(&f.ctx, TreeFixture::Key(
            rng.Uniform(static_cast<uint64_t>(state.range(0)))), &v));
  }
}
BENCHMARK(BM_BTreeLookup)->Arg(10000)->Arg(1000000);

void BM_BTreeInsert(benchmark::State& state) {
  TreeFixture f(0);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree->IndexInsert(&f.ctx, TreeFixture::Key(i++), i));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeScan100(benchmark::State& state) {
  TreeFixture f(200000);
  Random rng(2);
  for (auto _ : state) {
    uint64_t start = rng.Uniform(190000);
    uint64_t sum = 0;
    (void)f.tree->IndexScan(&f.ctx, TreeFixture::Key(start),
                            TreeFixture::Key(start + 100),
                            [&sum](Slice, uint64_t v) {
                              sum += v;
                              return true;
                            });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BTreeScan100);

// --- TPC-C-shaped composite keys ---------------------------------------------
// order-line style (table_tag, w_id, d_id, o_id): every key in a node shares
// the tag + warehouse + district prefix (and usually the o_id high bytes),
// which is exactly the shape fence-key prefix truncation and key heads are
// built for. kWarehouses/kDistricts mirror a small TPC-C install.

constexpr uint32_t kWarehouses = 4;
constexpr uint32_t kDistricts = 10;

std::string CompositeKey(uint32_t w, uint32_t d, uint64_t o) {
  std::string k(20, '\0');
  memcpy(k.data(), "ORDL", 4);
  k[4] = static_cast<char>(w >> 24);
  k[5] = static_cast<char>(w >> 16);
  k[6] = static_cast<char>(w >> 8);
  k[7] = static_cast<char>(w);
  k[8] = static_cast<char>(d >> 24);
  k[9] = static_cast<char>(d >> 16);
  k[10] = static_cast<char>(d >> 8);
  k[11] = static_cast<char>(d);
  EncodeBigEndian64(k.data() + 12, o);
  return k;
}

std::string CompositeKeyFromIndex(uint64_t i) {
  return CompositeKey(static_cast<uint32_t>(i % kWarehouses),
                      static_cast<uint32_t>((i / kWarehouses) % kDistricts),
                      i / (kWarehouses * kDistricts));
}

/// Worst case for prefix truncation: a pseudo-random 16-byte key whose very
/// first bytes are uniformly distributed, so siblings share no common prefix
/// and every node keeps full-length suffixes.
std::string DistinctPrefixKey(uint64_t i) {
  std::string k(16, '\0');
  uint64_t h = i * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  EncodeBigEndian64(k.data(), h);
  EncodeBigEndian64(k.data() + 8, i);
  return k;
}

struct CompositeFixture : TreeFixture {
  explicit CompositeFixture(uint64_t preload) : TreeFixture(0) {
    for (uint64_t i = 0; i < preload; ++i) {
      (void)tree->IndexInsert(&ctx, CompositeKeyFromIndex(i), i);
    }
  }
};

struct DistinctPrefixFixture : TreeFixture {
  explicit DistinctPrefixFixture(uint64_t preload) : TreeFixture(0) {
    for (uint64_t i = 0; i < preload; ++i) {
      (void)tree->IndexInsert(&ctx, DistinctPrefixKey(i), i);
    }
  }
};

void BM_BTreeLookupComposite(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  CompositeFixture f(n);
  Random rng(3);
  for (auto _ : state) {
    uint64_t v = 0;
    benchmark::DoNotOptimize(
        f.tree->IndexLookup(&f.ctx, CompositeKeyFromIndex(rng.Uniform(n)), &v));
  }
}
BENCHMARK(BM_BTreeLookupComposite)->Arg(10000)->Arg(1000000);

void BM_BTreeLookupDistinctPrefix(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  DistinctPrefixFixture f(n);
  Random rng(4);
  for (auto _ : state) {
    uint64_t v = 0;
    benchmark::DoNotOptimize(
        f.tree->IndexLookup(&f.ctx, DistinctPrefixKey(rng.Uniform(n)), &v));
  }
}
BENCHMARK(BM_BTreeLookupDistinctPrefix)->Arg(10000)->Arg(1000000);

void BM_BTreeInsertComposite(benchmark::State& state) {
  CompositeFixture f(0);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree->IndexInsert(&f.ctx, CompositeKeyFromIndex(i), i + 1));
    ++i;
  }
}
BENCHMARK(BM_BTreeInsertComposite);

void BM_BTreeScan100Composite(benchmark::State& state) {
  constexpr uint64_t kN = 200000;
  CompositeFixture f(kN);
  Random rng(5);
  for (auto _ : state) {
    uint64_t start = rng.Uniform(kN - 110 * kWarehouses * kDistricts);
    uint64_t sum = 0;
    (void)f.tree->IndexScan(
        &f.ctx, CompositeKeyFromIndex(start),
        CompositeKeyFromIndex(start + 100 * kWarehouses * kDistricts),
        [&sum](Slice, uint64_t v) {
          sum += v;
          return true;
        });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BTreeScan100Composite);

// --- Table::GetRef on TPC-C STOCK rows ----------------------------------------
// 17 columns, 290 bytes of strings per row. Sequential row ids stay in the
// leaf the transaction read last (leaf re-access, DESIGN.md 4h); random ones
// descend from the root almost every time. "projected" reads s_quantity only
// (DESIGN.md 4g). A transaction spans 1024 reads, so its arena stays small.

bench::TpccInstance* StockInstance() {
  static std::unique_ptr<bench::TpccInstance> inst = [] {
    tpcc::ScaleConfig scale;
    scale.customers_per_district = 30;
    scale.initial_orders_per_district = 30;
    scale.undelivered_tail = 9;
    scale.items = 20000;
    DatabaseOptions opts;
    opts.workers = 1;
    opts.wal_sync = false;
    return bench::SetupTpcc("micro_btree_stock", opts, scale);
  }();
  return inst.get();
}

void BM_TableGetRef(benchmark::State& state) {
  bench::TpccInstance* inst = StockInstance();
  Database* db = inst->db.get();
  Table* stock = inst->workload->tables.stock;
  const RowId n = stock->next_row_id() - 1;
  const bool random = state.range(0) != 0;
  const ColumnSet cols =
      state.range(1) != 0 ? ColumnBit(tpcc::Stock::kQuantity) : kAllColumns;
  OpContext ctx;
  Random rng(6);
  RowId next = 1;
  int reads = 0;
  Transaction* txn = db->Begin(db->aux_slot(0));
  for (auto _ : state) {
    const RowId rid = random ? 1 + rng.Uniform(n) : next;
    next = next == n ? 1 : next + 1;
    Slice row;
    benchmark::DoNotOptimize(stock->GetRef(&ctx, txn, rid, &row, cols));
    if (++reads == 1024) {
      (void)db->Commit(&ctx, txn);
      txn = db->Begin(db->aux_slot(0));
      reads = 0;
    }
  }
  (void)db->Commit(&ctx, txn);
}
BENCHMARK(BM_TableGetRef)
    ->ArgNames({"random", "projected"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

}  // namespace
}  // namespace phoebe
