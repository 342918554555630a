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
//   * Capacity-bounded LRU with hit/miss/coalesced/eviction counters, read
//     through stats() by whoever holds the cache and per build through
//     Observer::on_plan_cache.
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

// The trace-target plan store (see the header comment for usage).
class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const VariantPlan>;
  using Factory = std::function<StatusOr<VariantPlan>()>;

  // Capacity is clamped to >= 1. 128 keys a sizable fleet: one entry per
  // distinct (target, strategy, n, seed, engine-config) combination, NOT per
  // attack scenario — injections overlay a shared base entry.
  explicit PlanCache(size_t capacity = 128);

  // The builder's entry point: the cached plan for `key`, or run `factory`
  // (once, even under concurrent callers: latecomers block and share the
  // winner's result) and cache its plan. Factory errors, a thrown exception
  // included, propagate to every coalesced caller and are not cached — the
  // next call retries. `was_hit`, when non-null, reports whether this caller
  // was served a plan without running the factory.
  StatusOr<PlanPtr> GetOrPlan(const std::string& key, const Factory& factory,
                              bool* was_hit = nullptr);

  // Peek without a factory; counts as a hit or miss. Null when absent.
  PlanPtr Lookup(const std::string& key);
  // Inserts/overwrites, marking `key` most recently used.
  void Insert(const std::string& key, PlanPtr plan);
  void Clear();
  PlanCacheStats stats() const;

 private:
  struct InFlight {
    bool done = false;
    StatusOr<PlanPtr> result{Status(StatusCode::kInternal, "planning in flight")};
  };

  // Both require mu_ held.
  void InsertLocked(const std::string& key, PlanPtr plan);
  PlanPtr LookupLocked(const std::string& key);

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // signals InFlight completion
  const size_t capacity_;
  // Front = most recently used; index_ points into the list.
  std::list<std::pair<std::string, PlanPtr>> lru_;
  std::unordered_map<std::string, std::list<std::pair<std::string, PlanPtr>>::iterator> index_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace api
}  // namespace bunshin

#endif  // BUNSHIN_SRC_API_PLAN_CACHE_H_
