// MVCC costs: UNDO allocation, visibility with/without the twin-table fast
// path, and version-chain traversal depth (the twin-table design ablation
// from DESIGN.md).
#include <benchmark/benchmark.h>

#include "common/arena.h"
#include "common/profiler.h"
#include "storage/schema.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"
#include "txn/undo.h"
#include "txn/visibility.h"

namespace phoebe {
namespace {

Schema OneCol() { return Schema({{"v", ColumnType::kInt64, 0, false}}); }

std::string Row(const Schema& s, int64_t v) {
  RowBuilder b(&s);
  b.SetInt64(0, v);
  return b.Encode().value();
}

/// Before-image delta of the single column of `row`.
std::string Delta(const Schema& s, const std::string& row) {
  Arena arena;
  const uint32_t col = 0;
  return DeltaCodec::MakeDeltaTo(s, RowView(&s, row.data()), &col, 1, &arena)
      .ToString();
}

void BM_UndoAllocRecycle(benchmark::State& state) {
  UndoArena arena;
  std::string delta(static_cast<size_t>(state.range(0)), 'd');
  for (auto _ : state) {
    UndoRecord* rec = arena.Alloc(UndoKind::kUpdate, 1, 1, delta);
    rec->ets.store(1, std::memory_order_relaxed);
    arena.ReclaimWhile([](const UndoRecord&) { return true; }, nullptr,
                       nullptr);
    benchmark::DoNotOptimize(rec);
  }
}
BENCHMARK(BM_UndoAllocRecycle)->Arg(32)->Arg(512);

void BM_VisibilityNoTwin(benchmark::State& state) {
  // The fast path: page has no twin table -> base tuple immediately visible.
  Schema s = OneCol();
  std::string base = Row(s, 7);
  Arena scratch;
  GlobalClock clock;
  TxnManager txns(2, &clock);
  for (auto _ : state) {
    VisibleVersion vv;
    benchmark::DoNotOptimize(RetrieveVisibleVersion(
        s, MakeXid(5), 10, base, false, nullptr, 1, 1, &scratch, txns,
        &vv));
  }
}
BENCHMARK(BM_VisibilityNoTwin);

void BM_VisibilityHeaderHit(benchmark::State& state) {
  // Twin entry exists but the header ets <= snapshot: one check, no walk.
  Schema s = OneCol();
  UndoArena arena;
  TwinTable twin(4);
  std::string base = Row(s, 7);
  UndoRecord* rec =
      arena.Alloc(UndoKind::kUpdate, 1, 1, Delta(s, base));
  rec->ets.store(5, std::memory_order_relaxed);
  twin.entry(1).head.store(rec, std::memory_order_relaxed);
  Arena scratch;
  GlobalClock clock;
  TxnManager txns(2, &clock);
  for (auto _ : state) {
    VisibleVersion vv;
    benchmark::DoNotOptimize(RetrieveVisibleVersion(
        s, MakeXid(9), 10, base, false, &twin.entry(1), 1, 1, &scratch, txns,
        &vv));
    scratch.Reset();
  }
}
BENCHMARK(BM_VisibilityHeaderHit);

void BM_VisibilityChainWalk(benchmark::State& state) {
  // Old snapshot forces assembling N before-images.
  Schema s = OneCol();
  UndoArena arena;
  TwinTable twin(4);
  std::string base = Row(s, 1000);
  int depth = static_cast<int>(state.range(0));
  UndoRecord* next = nullptr;
  // Build chain oldest..newest with sts/ets = (i, i+1).
  for (int i = 1; i <= depth; ++i) {
    std::string row = Row(s, i);
    UndoRecord* rec = arena.Alloc(UndoKind::kUpdate, 1, 1, Delta(s, row));
    rec->sts.store(static_cast<uint64_t>(i), std::memory_order_relaxed);
    rec->ets.store(static_cast<uint64_t>(i + 1), std::memory_order_relaxed);
    rec->next.store(next, std::memory_order_relaxed);
    next = rec;
  }
  twin.entry(1).head.store(next, std::memory_order_relaxed);
  // Reset the arena every iteration, mirroring the per-transaction reset in
  // TxnManager::BeginOnSlot (steady state reuses the same blocks).
  Arena scratch;
  GlobalClock clock;
  TxnManager txns(2, &clock);
  for (auto _ : state) {
    VisibleVersion vv;
    benchmark::DoNotOptimize(RetrieveVisibleVersion(
        s, MakeXid(1), 1, base, false, &twin.entry(1), 1, 1, &scratch, txns,
        &vv));
    scratch.Reset();
  }
}
BENCHMARK(BM_VisibilityChainWalk)->Arg(1)->Arg(8)->Arg(64);

void BM_VisibilityForeignXidHead(benchmark::State& state) {
  // Head written by another active transaction that has not begun to
  // commit: the reader asks the manager for the writer's commit progress
  // (a scan over N slots, the writer on the last) and walks one record.
  Schema s = OneCol();
  UndoArena arena;
  TwinTable twin(4);
  GlobalClock clock;
  uint32_t slots = static_cast<uint32_t>(state.range(0));
  TxnManager txns(slots, &clock);
  Transaction* writer = txns.Begin(slots - 1, IsolationLevel::kReadCommitted);
  std::string base = Row(s, 2);
  UndoRecord* rec = arena.Alloc(UndoKind::kUpdate, 1, 1, Delta(s, Row(s, 1)));
  rec->sts.store(1, std::memory_order_relaxed);
  rec->ets.store(writer->xid(), std::memory_order_relaxed);
  twin.entry(1).head.store(rec, std::memory_order_relaxed);
  Timestamp snapshot = clock.Next();
  Arena scratch;
  for (auto _ : state) {
    VisibleVersion vv;
    benchmark::DoNotOptimize(RetrieveVisibleVersion(
        s, MakeXid(snapshot), snapshot, base, false, &twin.entry(1), 1, 1,
        &scratch, txns, &vv));
    scratch.Reset();
  }
  txns.FinishTransaction(writer, false);
}
BENCHMARK(BM_VisibilityForeignXidHead)->Arg(2)->Arg(40);

void BM_VisibilityChainWalkAllocs(benchmark::State& state) {
  // Reports allocs/op for the chain walk: steady state should be heap-free
  // (deltas copied into the arena, version assembly in the arena).
  Schema s = OneCol();
  UndoArena arena;
  TwinTable twin(4);
  std::string base = Row(s, 1000);
  int depth = static_cast<int>(state.range(0));
  UndoRecord* next = nullptr;
  for (int i = 1; i <= depth; ++i) {
    std::string row = Row(s, i);
    UndoRecord* rec = arena.Alloc(UndoKind::kUpdate, 1, 1, Delta(s, row));
    rec->sts.store(static_cast<uint64_t>(i), std::memory_order_relaxed);
    rec->ets.store(static_cast<uint64_t>(i + 1), std::memory_order_relaxed);
    rec->next.store(next, std::memory_order_relaxed);
    next = rec;
  }
  twin.entry(1).head.store(next, std::memory_order_relaxed);
  Arena scratch;
  GlobalClock clock;
  TxnManager txns(2, &clock);
  Profiler::Reset();
  Profiler::EnableAllocTracking(true);
  Profiler::Totals before = Profiler::Aggregate();
  uint64_t iters = 0;
  for (auto _ : state) {
    VisibleVersion vv;
    benchmark::DoNotOptimize(RetrieveVisibleVersion(
        s, MakeXid(1), 1, base, false, &twin.entry(1), 1, 1, &scratch, txns,
        &vv));
    scratch.Reset();
    ++iters;
  }
  Profiler::Totals after = Profiler::Aggregate();
  Profiler::EnableAllocTracking(false);
  if (iters > 0) {
    state.counters["heap_allocs_per_op"] = static_cast<double>(
        (after.total_heap_allocs - before.total_heap_allocs) / iters);
    state.counters["arena_bytes_per_op"] = static_cast<double>(
        (after.arena_bytes - before.arena_bytes) / iters);
  }
}
BENCHMARK(BM_VisibilityChainWalkAllocs)->Arg(8);

}  // namespace
}  // namespace phoebe
