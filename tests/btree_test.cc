#include "storage/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/coding.h"
#include "common/profiler.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TestDir>("btree");
    auto pf = PageFile::Open(Env::Default(), dir_->path() + "/data.pages");
    ASSERT_OK_R(pf);
    page_file_ = std::move(pf.value());
    BufferPool::Options opts;
    opts.buffer_bytes = 32ull << 20;
    opts.partitions = 2;
    pool_ = std::make_unique<BufferPool>(opts, page_file_.get());
    registry_ = std::make_unique<BTreeRegistry>(pool_.get());
    ctx_.synchronous = true;
  }

  std::unique_ptr<BTree> NewIndexTree() {
    auto tree = BTree::Create(pool_.get(), registry_.get(),
                              BTree::TreeKind::kIndex, nullptr, nullptr);
    EXPECT_TRUE(tree.ok());
    return std::move(tree.value());
  }

  static std::string Key(uint64_t v) {
    std::string k(8, '\0');
    EncodeBigEndian64(k.data(), v);
    return k;
  }

  std::unique_ptr<TestDir> dir_;
  std::unique_ptr<PageFile> page_file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTreeRegistry> registry_;
  OpContext ctx_;
};

TEST_F(BTreeTest, InsertLookupRemove) {
  auto tree = NewIndexTree();
  ASSERT_OK(tree->IndexInsert(&ctx_, "apple", 1));
  ASSERT_OK(tree->IndexInsert(&ctx_, "banana", 2));
  ASSERT_OK(tree->IndexInsert(&ctx_, "cherry", 3));

  uint64_t v = 0;
  ASSERT_OK(tree->IndexLookup(&ctx_, "banana", &v));
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(tree->IndexLookup(&ctx_, "durian", &v).IsNotFound());
  EXPECT_TRUE(tree->IndexInsert(&ctx_, "apple", 9).IsKeyExists());

  ASSERT_OK(tree->IndexRemove(&ctx_, "banana"));
  EXPECT_TRUE(tree->IndexLookup(&ctx_, "banana", &v).IsNotFound());
  EXPECT_TRUE(tree->IndexRemove(&ctx_, "banana").IsNotFound());
}

TEST_F(BTreeTest, SplitsGrowTree) {
  auto tree = NewIndexTree();
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i * 7919 % kN * 1000 + i), i));
  }
  EXPECT_GT(tree->Height(&ctx_), 1);
  for (int i = 0; i < kN; ++i) {
    uint64_t v = 0;
    ASSERT_OK(tree->IndexLookup(&ctx_, Key(i * 7919 % kN * 1000 + i), &v));
    ASSERT_EQ(v, static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, ScanRangeOrdered) {
  auto tree = NewIndexTree();
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i * 2), i));
  }
  // Scan [1000, 2000): keys 1000,1002,... (500 even keys).
  std::vector<uint64_t> seen;
  ASSERT_OK(tree->IndexScan(&ctx_, Key(1000), Key(2000),
                            [&seen](Slice k, uint64_t v) {
                              seen.push_back(DecodeBigEndian64(k.data()));
                              return true;
                            }));
  ASSERT_EQ(seen.size(), 500u);
  EXPECT_EQ(seen.front(), 1000u);
  EXPECT_EQ(seen.back(), 1998u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST_F(BTreeTest, ScanEarlyStop) {
  auto tree = NewIndexTree();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i), i));
  }
  int count = 0;
  ASSERT_OK(tree->IndexScan(&ctx_, Key(0), Key(100),
                            [&count](Slice, uint64_t) {
                              return ++count < 10;
                            }));
  EXPECT_EQ(count, 10);
}

TEST_F(BTreeTest, VariableLengthKeys) {
  auto tree = NewIndexTree();
  Random rng(11);
  std::map<std::string, uint64_t> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key(1 + rng.Uniform(64), '\0');
    for (auto& c : key) c = static_cast<char>('a' + rng.Uniform(26));
    if (model.emplace(key, i).second) {
      ASSERT_OK(tree->IndexInsert(&ctx_, key, i));
    }
  }
  for (const auto& [k, v] : model) {
    uint64_t got = 0;
    ASSERT_OK(tree->IndexLookup(&ctx_, k, &got));
    ASSERT_EQ(got, v);
  }
}

// Model-based property test: random insert/remove/lookup/scan mirrored
// against std::map, across several seeds.
class BTreeModelTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeModelTest, MatchesStdMap) {
  TestDir dir("btree_model");
  auto pf = PageFile::Open(Env::Default(), dir.path() + "/data.pages");
  ASSERT_OK_R(pf);
  BufferPool::Options opts;
  opts.buffer_bytes = 16ull << 20;
  BufferPool pool(opts, pf.value().get());
  BTreeRegistry registry(&pool);
  auto tree = BTree::Create(&pool, &registry, BTree::TreeKind::kIndex,
                            nullptr, nullptr);
  ASSERT_OK_R(tree);
  OpContext ctx;
  ctx.synchronous = true;

  Random rng(GetParam() * 7 + 13);
  std::map<std::string, uint64_t> model;
  for (int step = 0; step < 20000; ++step) {
    uint64_t key_num = rng.Uniform(5000);
    std::string key(8, '\0');
    EncodeBigEndian64(key.data(), key_num);
    int op = static_cast<int>(rng.Uniform(10));
    if (op < 5) {  // insert
      bool fresh = model.emplace(key, step).second;
      Status st = tree.value()->IndexInsert(&ctx, key, step);
      ASSERT_EQ(st.ok(), fresh) << st.ToString();
      if (!fresh) ASSERT_TRUE(st.IsKeyExists());
    } else if (op < 8) {  // lookup
      uint64_t v = 0;
      Status st = tree.value()->IndexLookup(&ctx, key, &v);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(st.IsNotFound());
      } else {
        ASSERT_OK(st);
        ASSERT_EQ(v, it->second);
      }
    } else {  // remove
      bool existed = model.erase(key) > 0;
      Status st = tree.value()->IndexRemove(&ctx, key);
      ASSERT_EQ(st.ok(), existed);
    }
  }
  // Final full scan equals the model.
  std::vector<std::pair<std::string, uint64_t>> scanned;
  ASSERT_OK(tree.value()->IndexScan(
      &ctx, "", Slice(), [&scanned](Slice k, uint64_t v) {
        scanned.emplace_back(k.ToString(), v);
        return true;
      }));
  ASSERT_EQ(scanned.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : scanned) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelTest, ::testing::Range(0, 6));

TEST_F(BTreeTest, ScanSurvivesMassDeletionAndEmptyLeaves) {
  auto tree = NewIndexTree();
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i), i));
  }
  // Remove 95%: long runs of empty leaves must not break fence-based scan
  // continuation or lookups.
  for (uint64_t i = 0; i < kN; ++i) {
    if (i % 20 != 0) ASSERT_OK(tree->IndexRemove(&ctx_, Key(i)));
  }
  std::vector<uint64_t> seen;
  ASSERT_OK(tree->IndexScan(&ctx_, Key(0), Key(kN),
                            [&seen](Slice, uint64_t v) {
                              seen.push_back(v);
                              return true;
                            }));
  ASSERT_EQ(seen.size(), kN / 20);
  for (size_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], i * 20);
  // Point lookups still work on survivors and miss on the removed.
  uint64_t v = 0;
  ASSERT_OK(tree->IndexLookup(&ctx_, Key(40), &v));
  EXPECT_TRUE(tree->IndexLookup(&ctx_, Key(41), &v).IsNotFound());
  // Reinsertion into emptied regions works.
  for (uint64_t i = 1; i < 100; i += 2) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i), i + 1000000));
  }
  ASSERT_OK(tree->IndexLookup(&ctx_, Key(41), &v));
  EXPECT_EQ(v, 41u + 1000000);
}

TEST_F(BTreeTest, ConcurrentInsertsDistinctRanges) {
  auto tree = NewIndexTree();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      OpContext ctx;
      ctx.synchronous = true;
      ctx.partition = static_cast<uint32_t>(t % 2);
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t key = static_cast<uint64_t>(t) * 1000000 + i;
        Status st = tree->IndexInsert(&ctx, Key(key), key);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& t : threads) t.join();
  OpContext ctx;
  ctx.synchronous = true;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      uint64_t key = static_cast<uint64_t>(t) * 1000000 + i;
      uint64_t v = 0;
      ASSERT_OK(tree->IndexLookup(&ctx, Key(key), &v));
      ASSERT_EQ(v, key);
    }
  }
}

TEST_F(BTreeTest, ConcurrentReadersDuringWrites) {
  auto tree = NewIndexTree();
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i), i));
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      OpContext ctx;
      ctx.synchronous = true;
      Random rng(reads.fetch_add(1) + 17);
      while (!stop) {
        uint64_t k = rng.Uniform(2000);
        uint64_t v = 0;
        Status st = tree->IndexLookup(&ctx, Key(k), &v);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ASSERT_EQ(v, k);
        reads.fetch_add(1);
      }
    });
  }
  OpContext wctx;
  wctx.synchronous = true;
  // Keep writing until the readers demonstrably made progress: a fixed
  // 10k-insert burst takes only a few ms, and on a single-CPU host the
  // reader threads may not even be scheduled within it. The 200k cap
  // bounds the run; real reader starvation still fails the check below.
  uint64_t i = 2000;
  while (i < 12000 || (reads.load() < 1100 && i < 200000)) {
    ASSERT_OK(tree->IndexInsert(&wctx, Key(i), i));
    ++i;
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 1000u);
}

// --- Leaf re-access through a LeafCache (DESIGN.md 4h) ----------------------------

TEST_F(BTreeTest, LeafCacheReentersLeafAndFollowsSplits) {
  auto tree = NewIndexTree();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i * 1000), i));
  }
  LeafCache cache;
  Profiler::Reset();
  Profiler::Enable(true);
  uint64_t v = 0;
  ASSERT_OK(tree->IndexLookup(&ctx_, Key(1000), &v, &cache));  // descends
  ASSERT_OK(tree->IndexLookup(&ctx_, Key(2000), &v, &cache));  // same leaf
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(tree->IndexLookup(&ctx_, Key(2001), &v, &cache).IsNotFound());
  Profiler::Enable(false);
  Profiler::Totals totals = Profiler::Aggregate();
  EXPECT_EQ(totals.leaf_cache_reads, 3u);
  EXPECT_EQ(totals.leaf_cache_hits, 2u);

  // Splits move most keys out of the cached leaf.
  for (uint64_t i = 0; i < 100000; ++i) {
    if (i % 1000 != 0) ASSERT_OK(tree->IndexInsert(&ctx_, Key(i), i + 1));
  }
  ASSERT_GT(tree->Height(&ctx_), 1);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_OK(tree->IndexLookup(&ctx_, Key(i * 1000), &v, &cache));
    ASSERT_EQ(v, i);
  }
}

TEST_F(BTreeTest, LeafCacheSkipsFrameReusedByAnotherTree) {
  auto a = NewIndexTree();
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_OK(a->IndexInsert(&ctx_, Key(i), i));
  }
  LeafCache cache;
  uint64_t v = 0;
  ASSERT_OK(a->IndexLookup(&ctx_, Key(2500), &v, &cache));
  LeafGuard g;
  ASSERT_OK(a->FixLeaf(&ctx_, Key(2500), LatchMode::kShared, &g));
  BufferFrame* leaf = g.frame();
  g.Release();
  ASSERT_EQ(leaf->partition, 0);

  // Evict one frame at a time, so the cached leaf's frame is the last one
  // freed and the next tree's root leaf (empty, unbounded fences) reuses it.
  for (int i = 0; i < 100000 && leaf->state.load() != FrameState::kFree;
       ++i) {
    registry_->CoolRandomFrames(&ctx_, 0, 1);
    registry_->EvictCoolingBatch(&ctx_, 0, 1);
  }
  ASSERT_EQ(leaf->state.load(), FrameState::kFree);
  auto b = NewIndexTree();
  ASSERT_EQ(b->root_frame(), leaf);

  ASSERT_OK(a->IndexLookup(&ctx_, Key(2501), &v, &cache));
  EXPECT_EQ(v, 2501u);
}

TEST_F(BTreeTest, LeafCacheSkipsFrameFreedWithoutExclusiveLatch) {
  // Drop frees frames without latching them, so the version does not move;
  // the cached leaf's frame must still not be re-entered.
  auto tree = NewIndexTree();
  ASSERT_OK(tree->IndexInsert(&ctx_, Key(1), 1));
  ASSERT_OK(tree->IndexInsert(&ctx_, Key(2), 2));
  LeafCache cache;
  uint64_t v = 0;
  ASSERT_OK(tree->IndexLookup(&ctx_, Key(1), &v, &cache));
  ASSERT_OK(tree->Drop(&ctx_));
  EXPECT_FALSE(tree->IndexLookup(&ctx_, Key(2), &v, &cache).ok());
}

TEST_F(BTreeTest, LeafCacheReadersDuringSplits) {
  auto tree = NewIndexTree();
  for (uint64_t i = 0; i < 20000; i += 10) {
    ASSERT_OK(tree->IndexInsert(&ctx_, Key(i), i));
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      OpContext ctx;
      LeafCache cache;
      Random rng(static_cast<uint64_t>(t) + 5);
      while (!stop) {
        // Short ascending runs, so most probes land in the cached leaf.
        uint64_t k = rng.Uniform(1990) * 10;
        for (int j = 0; j < 10; ++j, k += 10) {
          uint64_t v = 0;
          Status st = tree->IndexLookup(&ctx, Key(k), &v, &cache);
          ASSERT_TRUE(st.ok()) << st.ToString();
          ASSERT_EQ(v, k);
        }
        reads.fetch_add(10);
      }
    });
  }
  OpContext wctx;
  uint64_t i = 1;
  while (i < 20000 || (reads.load() < 2000 && i < 400000)) {
    if (i % 10 != 0) ASSERT_OK(tree->IndexInsert(&wctx, Key(i), i));
    ++i;
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 1000u);
}

}  // namespace
}  // namespace phoebe
