// PlanCache: the session-batching store the ROADMAP's amortization item asks
// for.
//
// The paper's NVX model pays its planning cost (profile synthesis,
// check/sanitizer partitioning, per-variant spec construction) once per
// protected program and then serves many executions; without a cache our
// NvxBuilder re-plans on every Build(). This header provides the keyed plan
// store consulted through NvxBuilder::WithPlanCache():
//
//   auto cache = std::make_shared<api::PlanCache>(/*capacity=*/128);
//   for (;;) {  // server loop: one plan, millions of sessions
//     auto session = api::NvxBuilder()
//                        .Benchmark(spec).Variants(8)
//                        .DistributeChecks(san::SanitizerId::kASan)
//                        .WithPlanCache(cache)
//                        .Build();                  // warm: no re-planning
//     ...
//   }
//
// Design points:
//   * Entries are shared_ptr<const VariantPlan> keyed by the plan's
//     CacheKey() — immutable, so every session (and every shard of every
//     session) built from one key shares one plan instance.
//   * Only the *base* (injection-free) plan is stored; the builder applies
//     InjectDetection/InjectDivergence as a cheap copy-on-write overlay, so
//     attack scenarios share the clean sessions' cache entry instead of
//     fragmenting the store.
//   * Thread-safe with single-flight coalescing: when N builders miss the
//     same key concurrently, exactly one runs the planner and the other N-1
//     block briefly and share its plan instance (never N duplicate plans).
//   * Capacity-bounded LRU with hit/miss/coalesced/eviction counters,
//     surfaced per-run through RunReport::plan_cache and per-build through
//     Observer::on_plan_cache.
//
// IrSystemCache is the IR analogue: built core::IrNvxSystem state (variant
// construction = instrument + profile + partition + slice) keyed by the
// module's structural hash plus the strategy configuration
// (NvxBuilder::IrCacheKey(), core::StructuralHash).
#ifndef BUNSHIN_SRC_API_PLAN_CACHE_H_
#define BUNSHIN_SRC_API_PLAN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/api/plan.h"
#include "src/support/status.h"

namespace bunshin {
namespace core {
class IrNvxSystem;
}  // namespace core

namespace api {

// A consistent snapshot of one cache's counters.
struct PlanCacheStats {
  uint64_t hits = 0;       // lookups served a plan from the store (incl. coalesced)
  uint64_t misses = 0;     // lookups not served a plan (planner ran, or a
                           // coalesced wait shared the planner's error)
  uint64_t coalesced = 0;  // hits that waited on a concurrent planner run
  uint64_t evictions = 0;  // entries dropped by the LRU capacity bound
  size_t entries = 0;      // currently stored
  size_t capacity = 0;
};

namespace internal {

// Type-erased core shared by PlanCache and IrSystemCache: a thread-safe,
// capacity-bounded LRU of shared_ptr<const void> with single-flight
// coalescing of concurrent misses on one key.
class LruCacheCore {
 public:
  using ValuePtr = std::shared_ptr<const void>;
  using Factory = std::function<StatusOr<ValuePtr>()>;

  explicit LruCacheCore(size_t capacity);

  // Returns the cached value for `key`, or runs `factory` (once, even under
  // concurrent callers: latecomers block and share the winner's result) and
  // caches it. Factory errors propagate to every coalesced caller and are
  // not cached — the next call retries. `was_hit`, when non-null, reports
  // whether this caller avoided running the factory.
  StatusOr<ValuePtr> GetOr(const std::string& key, const Factory& factory, bool* was_hit);

  // Peek without a factory; counts as a hit or miss. Null when absent.
  ValuePtr Lookup(const std::string& key);
  // Inserts/overwrites, marking `key` most recently used.
  void Insert(const std::string& key, ValuePtr value);
  void Clear();
  PlanCacheStats stats() const;

 private:
  struct InFlight {
    bool done = false;
    StatusOr<ValuePtr> result{Status(StatusCode::kInternal, "planning in flight")};
  };

  // Both require mu_ held.
  void InsertLocked(const std::string& key, ValuePtr value);
  ValuePtr LookupLocked(const std::string& key);

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // signals InFlight completion
  const size_t capacity_;
  // Front = most recently used; index_ points into the list.
  std::list<std::pair<std::string, ValuePtr>> lru_;
  std::unordered_map<std::string, std::list<std::pair<std::string, ValuePtr>>::iterator> index_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace internal

// The trace-target plan store (see the header comment for usage).
class PlanCache {
 public:
  // Capacity is clamped to >= 1. 128 keys a sizable fleet: one entry per
  // distinct (target, strategy, n, seed, engine-config) combination, NOT per
  // attack scenario — injections overlay a shared base entry.
  explicit PlanCache(size_t capacity = 128);

  using Factory = std::function<StatusOr<VariantPlan>()>;

  // The builder's entry point: cached plan for `key`, or plan once via
  // `factory` and cache the result.
  StatusOr<std::shared_ptr<const VariantPlan>> GetOrPlan(const std::string& key,
                                                         const Factory& factory,
                                                         bool* was_hit = nullptr);

  std::shared_ptr<const VariantPlan> Lookup(const std::string& key);
  void Insert(const std::string& key, std::shared_ptr<const VariantPlan> plan);
  void Clear();
  PlanCacheStats stats() const;

 private:
  internal::LruCacheCore core_;
};

// The IR analogue: built IrNvxSystem state keyed by module structural hash +
// strategy configuration (NvxBuilder::IrCacheKey()). Cached systems are
// immutable and shared across sessions; IrNvxSystem::RunDetailed is const
// and safe to call from many sessions at once.
class IrSystemCache {
 public:
  explicit IrSystemCache(size_t capacity = 32);

  using Factory = std::function<StatusOr<std::shared_ptr<const core::IrNvxSystem>>()>;

  StatusOr<std::shared_ptr<const core::IrNvxSystem>> GetOrBuild(const std::string& key,
                                                                const Factory& factory,
                                                                bool* was_hit = nullptr);

  std::shared_ptr<const core::IrNvxSystem> Lookup(const std::string& key);
  void Clear();
  PlanCacheStats stats() const;

 private:
  internal::LruCacheCore core_;
};

}  // namespace api
}  // namespace bunshin

#endif  // BUNSHIN_SRC_API_PLAN_CACHE_H_
