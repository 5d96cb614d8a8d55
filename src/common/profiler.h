#ifndef PHOEBE_COMMON_PROFILER_H_
#define PHOEBE_COMMON_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace phoebe {

/// Cost components tracked for the Exp 7 instruction/cycle breakdown
/// (Figure 12 in the paper). "Effective computation" is everything that is
/// not attributed to one of the explicit components.
enum class Component : uint8_t {
  kWal = 0,
  kMvcc = 1,
  kLatching = 2,
  kBufferManager = 3,
  kGc = 4,
  kLocking = 5,
  kBtreeSearch = 6,
  kNumComponents = 7,
};

inline const char* ComponentName(Component c) {
  switch (c) {
    case Component::kWal: return "WAL";
    case Component::kMvcc: return "MVCC";
    case Component::kLatching: return "Latching";
    case Component::kBufferManager: return "BufferManager";
    case Component::kGc: return "GC";
    case Component::kLocking: return "Locking";
    case Component::kBtreeSearch: return "BTreeSearch";
    default: return "?";
  }
}

/// Per-thread cycle and allocation accumulator. Cycle collection and
/// allocation tracking are enabled globally and independently; when both are
/// off, scopes compile down to a couple of relaxed-load branches and the
/// global operator new hook is a single relaxed load in front of malloc.
class Profiler {
 public:
  static constexpr int kN = static_cast<int>(Component::kNumComponents);

  static void Enable(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Turns heap/arena allocation counting on. Counted via the global
  /// operator new replacement in profiler.cc (heap) and Arena::Allocate
  /// (arena), attributed to the innermost active ComponentScope.
  static void EnableAllocTracking(bool on) {
    alloc_tracking_.store(on, std::memory_order_relaxed);
  }
  static bool alloc_tracking() {
    return alloc_tracking_.load(std::memory_order_relaxed);
  }

  /// Thread-local accumulators; merged on demand. Cycle fields are plain
  /// (only read after the workload quiesces); allocation fields are relaxed
  /// atomics because the TPC-C driver snapshots them at the measured-window
  /// boundaries while workers are still running.
  struct ThreadCounters {
    std::array<uint64_t, kN> cycles{};
    uint64_t total_cycles = 0;
    uint64_t txn_count = 0;
    /// BTree::FixLeafShared calls given a LeafCache, and those that reused
    /// the cached leaf instead of descending.
    uint64_t leaf_cache_reads = 0;
    uint64_t leaf_cache_hits = 0;
    std::array<std::atomic<uint64_t>, kN> heap_allocs{};
    std::array<std::atomic<uint64_t>, kN> heap_bytes{};
    std::atomic<uint64_t> total_heap_allocs{0};
    std::atomic<uint64_t> total_heap_bytes{0};
    std::atomic<uint64_t> arena_allocs{0};
    std::atomic<uint64_t> arena_bytes{0};
  };

  /// Plain-value snapshot of ThreadCounters summed across threads.
  struct Totals {
    std::array<uint64_t, kN> cycles{};
    uint64_t total_cycles = 0;
    uint64_t txn_count = 0;
    uint64_t leaf_cache_reads = 0;
    uint64_t leaf_cache_hits = 0;
    std::array<uint64_t, kN> heap_allocs{};
    std::array<uint64_t, kN> heap_bytes{};
    uint64_t total_heap_allocs = 0;
    uint64_t total_heap_bytes = 0;
    uint64_t arena_allocs = 0;
    uint64_t arena_bytes = 0;
  };

  static ThreadCounters& Local();

  /// Sums counters across all threads that ever touched the profiler.
  static Totals Aggregate();

  /// Clears all registered thread counters.
  static void Reset();

  /// Called from the operator new replacement / Arena::Allocate when
  /// alloc_tracking() is on. Re-entrancy safe (counting a heap allocation
  /// may itself allocate the thread's counter block on first use).
  static void CountHeapAlloc(size_t bytes);
  static void CountArenaAlloc(size_t bytes);

  /// Component the current thread is executing under, for allocation
  /// attribution; -1 = unattributed. Maintained by ComponentScope. Trivially
  /// initialized so the operator new hook can read it with no TLS guard.
  inline static thread_local int tl_component = -1;

  /// Cycles consumed by ComponentScopes nested inside the currently open
  /// scope on this thread. Lets the enclosing scope attribute only its
  /// *exclusive* (self) time, so nested scopes — e.g. a kBtreeSearch probe
  /// inside the kLatching descent — are not double counted and the exp7
  /// component shares still sum to <= total.
  inline static thread_local uint64_t tl_child_cycles = 0;

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<bool> alloc_tracking_;
};

/// Scoped timer attributing elapsed cycles (and, when allocation tracking is
/// on, heap allocations) to a component. Nesting-aware: a scope records its
/// elapsed time minus the elapsed time of scopes nested within it.
class ComponentScope {
 public:
  explicit ComponentScope(Component c) : c_(c) {
    if (Profiler::enabled()) {
      saved_child_ = Profiler::tl_child_cycles;
      Profiler::tl_child_cycles = 0;
      start_ = ReadCycles();
    }
    if (Profiler::alloc_tracking()) {
      prev_component_ = Profiler::tl_component;
      Profiler::tl_component = static_cast<int>(c);
      restore_ = true;
    }
  }
  ~ComponentScope() {
    if (start_ != 0) {
      const uint64_t elapsed = ReadCycles() - start_;
      const uint64_t nested = Profiler::tl_child_cycles;
      const uint64_t self = elapsed > nested ? elapsed - nested : 0;
      Profiler::Local().cycles[static_cast<int>(c_)] += self;
      Profiler::tl_child_cycles = saved_child_ + elapsed;
    }
    if (restore_) Profiler::tl_component = prev_component_;
  }
  ComponentScope(const ComponentScope&) = delete;
  ComponentScope& operator=(const ComponentScope&) = delete;

 private:
  Component c_;
  uint64_t start_ = 0;
  uint64_t saved_child_ = 0;
  int prev_component_ = -1;
  bool restore_ = false;
};

/// Scoped timer for a whole transaction (total cycles + txn count).
class TxnScope {
 public:
  TxnScope() {
    if (Profiler::enabled()) start_ = ReadCycles();
  }
  ~TxnScope() {
    if (start_ != 0) {
      auto& local = Profiler::Local();
      local.total_cycles += ReadCycles() - start_;
      local.txn_count += 1;
    }
  }

 private:
  uint64_t start_ = 0;
};

}  // namespace phoebe

#endif  // PHOEBE_COMMON_PROFILER_H_
