#include "common/profiler.h"

#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

namespace phoebe {

std::atomic<bool> Profiler::enabled_{false};
std::atomic<bool> Profiler::alloc_tracking_{false};

namespace {

std::mutex g_registry_mu;
std::vector<Profiler::ThreadCounters*>& Registry() {
  static std::vector<Profiler::ThreadCounters*>* r =
      new std::vector<Profiler::ThreadCounters*>();
  return *r;
}

struct RegisteredCounters {
  Profiler::ThreadCounters counters;
  RegisteredCounters() {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    Registry().push_back(&counters);
  }
  // Intentionally never unregisters: worker threads live for the process
  // lifetime and the registry must survive thread exit for Aggregate().
};

// Guards against re-entering the counting path: Local()'s first call on a
// thread heap-allocates the counter block, which re-enters operator new.
// Trivially initialized (no TLS guard), safe to read from the new hook.
thread_local bool tl_in_alloc_count = false;

}  // namespace

Profiler::ThreadCounters& Profiler::Local() {
  // The registration allocates; suppress the counting hook during it so a
  // direct Local() call (e.g. TxnScope) with alloc tracking enabled cannot
  // recurse into this thread_local's own in-progress initialization.
  static thread_local RegisteredCounters* tls = [] {
    bool saved = tl_in_alloc_count;
    tl_in_alloc_count = true;
    auto* p = new RegisteredCounters();
    tl_in_alloc_count = saved;
    return p;
  }();
  return tls->counters;
}

void Profiler::CountHeapAlloc(size_t bytes) {
  if (tl_in_alloc_count) return;
  tl_in_alloc_count = true;
  ThreadCounters& tc = Local();
  tc.total_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  tc.total_heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
  int c = tl_component;
  if (c >= 0 && c < kN) {
    tc.heap_allocs[c].fetch_add(1, std::memory_order_relaxed);
    tc.heap_bytes[c].fetch_add(bytes, std::memory_order_relaxed);
  }
  tl_in_alloc_count = false;
}

void Profiler::CountArenaAlloc(size_t bytes) {
  if (tl_in_alloc_count) return;
  tl_in_alloc_count = true;
  ThreadCounters& tc = Local();
  tc.arena_allocs.fetch_add(1, std::memory_order_relaxed);
  tc.arena_bytes.fetch_add(bytes, std::memory_order_relaxed);
  tl_in_alloc_count = false;
}

Profiler::Totals Profiler::Aggregate() {
  Totals out;
  // Any allocation below (e.g. Registry()'s first-call vector init) must not
  // re-enter the counting path while g_registry_mu is held: registering the
  // thread would self-deadlock on the same mutex.
  bool saved = tl_in_alloc_count;
  tl_in_alloc_count = true;
  std::lock_guard<std::mutex> lk(g_registry_mu);
  for (const auto* tc : Registry()) {
    for (int i = 0; i < kN; ++i) {
      out.cycles[i] += tc->cycles[i];
      out.heap_allocs[i] += tc->heap_allocs[i].load(std::memory_order_relaxed);
      out.heap_bytes[i] += tc->heap_bytes[i].load(std::memory_order_relaxed);
    }
    out.total_cycles += tc->total_cycles;
    out.txn_count += tc->txn_count;
    out.leaf_cache_reads += tc->leaf_cache_reads;
    out.leaf_cache_hits += tc->leaf_cache_hits;
    out.total_heap_allocs +=
        tc->total_heap_allocs.load(std::memory_order_relaxed);
    out.total_heap_bytes +=
        tc->total_heap_bytes.load(std::memory_order_relaxed);
    out.arena_allocs += tc->arena_allocs.load(std::memory_order_relaxed);
    out.arena_bytes += tc->arena_bytes.load(std::memory_order_relaxed);
  }
  tl_in_alloc_count = saved;
  return out;
}

void Profiler::Reset() {
  bool saved = tl_in_alloc_count;
  tl_in_alloc_count = true;
  std::lock_guard<std::mutex> lk(g_registry_mu);
  for (auto* tc : Registry()) {
    tc->cycles.fill(0);
    tc->total_cycles = 0;
    tc->txn_count = 0;
    tc->leaf_cache_reads = 0;
    tc->leaf_cache_hits = 0;
    for (int i = 0; i < kN; ++i) {
      tc->heap_allocs[i].store(0, std::memory_order_relaxed);
      tc->heap_bytes[i].store(0, std::memory_order_relaxed);
    }
    tc->total_heap_allocs.store(0, std::memory_order_relaxed);
    tc->total_heap_bytes.store(0, std::memory_order_relaxed);
    tc->arena_allocs.store(0, std::memory_order_relaxed);
    tc->arena_bytes.store(0, std::memory_order_relaxed);
  }
  tl_in_alloc_count = saved;
}

}  // namespace phoebe

// ---------------------------------------------------------------------------
// Global operator new/delete replacement: counts every heap allocation when
// Profiler::EnableAllocTracking(true) is set, otherwise a single relaxed
// load in front of malloc. All forms forward to malloc/free so the
// replacement composes with ASan/TSan malloc interceptors (the sanitizers
// see consistent malloc/free pairs).
// ---------------------------------------------------------------------------

namespace {

void* PhoebeAllocOrThrow(std::size_t n) {
  if (phoebe::Profiler::alloc_tracking()) phoebe::Profiler::CountHeapAlloc(n);
  for (;;) {
    void* p = std::malloc(n ? n : 1);
    if (p != nullptr) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* PhoebeAllocAlignedOrThrow(std::size_t n, std::size_t align) {
  if (phoebe::Profiler::alloc_tracking()) phoebe::Profiler::CountHeapAlloc(n);
  if (align < alignof(std::max_align_t)) align = alignof(std::max_align_t);
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align, n ? n : align) == 0 && p != nullptr) {
      return p;
    }
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

}  // namespace

void* operator new(std::size_t n) { return PhoebeAllocOrThrow(n); }
void* operator new[](std::size_t n) { return PhoebeAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return PhoebeAllocOrThrow(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return PhoebeAllocOrThrow(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return PhoebeAllocAlignedOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return PhoebeAllocAlignedOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return PhoebeAllocAlignedOrThrow(n, static_cast<std::size_t>(a));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return PhoebeAllocAlignedOrThrow(n, static_cast<std::size_t>(a));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
