// Heap accounting for tests that bound what code holds or allocates. The
// global operator new and delete, replaced here, count every call and the
// usable bytes (malloc_usable_size) of every live block, and while a peak is
// tracked, the highest that count reached. The count is exact where
// mallinfo2 is not (glibc's per-thread caches report freed chunks as in use),
// and reads the same under ASan and TSan, whose allocators implement
// malloc_usable_size. The library allocates only through operator new.
//
// This header defines the replacement operators: include it from exactly one
// source file of a test binary.
#ifndef BUNSHIN_TESTS_HEAP_COUNTER_H_
#define BUNSHIN_TESTS_HEAP_COUNTER_H_

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "src/api/plan.h"
#include "src/nxe/engine.h"
#include "src/workload/tracegen.h"

namespace bunshin {
namespace testutil {

inline std::atomic<int64_t> g_heap_held{0};      // usable bytes of live blocks
inline std::atomic<uint64_t> g_heap_allocs{0};   // operator new calls
inline std::atomic<int64_t> g_heap_peak{0};      // highest g_heap_held while tracked
inline std::atomic<bool> g_heap_tracking{false};

// Counts a block just allocated; a null one is left uncounted.
inline void* CountBlockOrNull(void* ptr) noexcept {
  if (ptr == nullptr) {
    return nullptr;
  }
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<int64_t>(malloc_usable_size(ptr));
  const int64_t held = g_heap_held.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (g_heap_tracking.load(std::memory_order_relaxed)) {
    int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
    while (held > peak && !g_heap_peak.compare_exchange_weak(peak, held)) {
    }
  }
  return ptr;
}

// Counts a block just allocated; a null one is an allocation failure.
inline void* CountBlock(void* ptr) {
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return CountBlockOrNull(ptr);
}

inline void* PlainBlock(std::size_t size) noexcept { return std::malloc(size == 0 ? 1 : size); }

inline void* AlignedBlock(std::size_t size, std::align_val_t alignment) noexcept {
  void* ptr = nullptr;
  const std::size_t align = static_cast<std::size_t>(alignment);
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return ptr;
}

// Kept out of line: inlined into operator delete, GCC would see free() of a
// pointer operator new returned and warn (-Wmismatched-new-delete).
[[gnu::noinline]] inline void FreeBlock(void* ptr) noexcept {
  if (ptr != nullptr) {
    g_heap_held.fetch_sub(static_cast<int64_t>(malloc_usable_size(ptr)),
                          std::memory_order_relaxed);
  }
  std::free(ptr);
}

// Usable bytes of the live operator-new blocks.
inline int64_t HeapHeld() { return g_heap_held.load(); }

// Operator-new calls so far.
inline uint64_t HeapAllocations() { return g_heap_allocs.load(); }

// The most the live bytes rose above their value at the start of `fn`
// while it ran, on any thread.
template <typename Fn>
int64_t PeakHeapGrowth(const Fn& fn) {
  const int64_t start = g_heap_held.load();
  g_heap_peak.store(start);
  g_heap_tracking.store(true);
  fn();
  g_heap_tracking.store(false);
  return g_heap_peak.load() - start;
}

// What a trace session's run state costs, for `plan` at workload seed
// `seed`, built the way a session's first run builds it.

// The replay state a session keeps between runs: the member traces and the
// record tables they borrow. The rest of the template is working memory.
inline int64_t ReplayStateBytes(const api::VariantPlan& plan, uint64_t seed) {
  std::vector<size_t> members(plan.n_variants());
  std::iota(members.begin(), members.end(), 0);
  std::vector<nxe::VariantTrace> traces;
  workload::RecordTables tables;
  const int64_t before = HeapHeld();
  {
    workload::TraceTemplate tmpl;
    api::BuildPlanTemplate(plan, seed, &tmpl);
    if (!api::DerivePlanTraces(plan, members, tmpl, &traces).ok()) {
      return -1;
    }
    workload::ReclaimTables(&tmpl, &tables);
  }
  return HeapHeld() - before;
}

// The working memory one run fills and no later run reads: the template
// but its record tables, the baseline trace and the engine arenas of the
// baseline and session runs (with the session run's finish-time vector).
inline int64_t WorkingMemoryBytes(const api::VariantPlan& plan, uint64_t seed) {
  std::vector<size_t> members(plan.n_variants());
  std::iota(members.begin(), members.end(), 0);
  workload::TraceTemplate tmpl;
  std::vector<nxe::VariantTrace> traces;
  nxe::EngineWorkspace workspace;
  nxe::VariantTrace baseline;
  workload::RecordTables tables;
  nxe::EngineConfig config = plan.engine_config;
  config.contention_variants = plan.n_variants();
  const nxe::Engine engine(config);
  const int64_t before = HeapHeld();
  api::BuildPlanTemplate(plan, seed, &tmpl);
  if (!api::DerivePlanTraces(plan, members, tmpl, &traces).ok()) {
    return -1;
  }
  workload::DeriveTrace(tmpl, workload::VariantSpec{}, &baseline);
  if (!engine.RunBaseline(baseline, &workspace).ok()) {
    return -1;
  }
  const StatusOr<nxe::SyncReport> sync = engine.Run(traces, &workspace);
  workload::ReclaimTables(&tmpl, &tables);
  const int64_t run = HeapHeld() - before;  // replay state and working memory
  return sync.ok() ? run - ReplayStateBytes(plan, seed) : -1;
}

}  // namespace testutil
}  // namespace bunshin

// Every form the language lets a program replace, so no block is allocated
// by one allocator and freed by another.
void* operator new(std::size_t size) {
  return bunshin::testutil::CountBlock(bunshin::testutil::PlainBlock(size));
}
void* operator new[](std::size_t size) {
  return bunshin::testutil::CountBlock(bunshin::testutil::PlainBlock(size));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return bunshin::testutil::CountBlock(bunshin::testutil::AlignedBlock(size, alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return bunshin::testutil::CountBlock(bunshin::testutil::AlignedBlock(size, alignment));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return bunshin::testutil::CountBlockOrNull(bunshin::testutil::PlainBlock(size));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return bunshin::testutil::CountBlockOrNull(bunshin::testutil::PlainBlock(size));
}
void* operator new(std::size_t size, std::align_val_t alignment, const std::nothrow_t&) noexcept {
  return bunshin::testutil::CountBlockOrNull(bunshin::testutil::AlignedBlock(size, alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return bunshin::testutil::CountBlockOrNull(bunshin::testutil::AlignedBlock(size, alignment));
}
void operator delete(void* ptr) noexcept { bunshin::testutil::FreeBlock(ptr); }
void operator delete[](void* ptr) noexcept { bunshin::testutil::FreeBlock(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { bunshin::testutil::FreeBlock(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { bunshin::testutil::FreeBlock(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { bunshin::testutil::FreeBlock(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  bunshin::testutil::FreeBlock(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  bunshin::testutil::FreeBlock(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  bunshin::testutil::FreeBlock(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  bunshin::testutil::FreeBlock(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  bunshin::testutil::FreeBlock(ptr);
}
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  bunshin::testutil::FreeBlock(ptr);
}
void operator delete[](void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  bunshin::testutil::FreeBlock(ptr);
}

#endif  // BUNSHIN_TESTS_HEAP_COUNTER_H_
