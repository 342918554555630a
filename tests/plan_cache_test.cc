// Tests for the session-batching plan cache (src/api/plan_cache.h) and the
// VariantPlan::CacheKey() correctness fixes it depends on:
//   * collision regressions — fixed 6-decimal double formatting aliased
//     sub-1e-6 deltas, and unescaped free-form names aliased across key
//     fields (both would have made a cache return the wrong plan);
//   * LRU eviction order, hit/miss/coalesced/eviction counters;
//   * base-plan caching with injection overlays (attack scenarios share the
//     clean sessions' cache entry);
//   * cached sessions bit-identical to uncached ones, plain and sharded;
//   * N threads Build()ing one key concurrently observe one shared plan
//     instance (single-flight coalescing) — runs under TSan and ASan in CI.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/api/nvx.h"
#include "src/api/plan_cache.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using api::NvxBuilder;
using api::NvxOutcome;
using api::PlanCache;
using api::PlanCacheStats;
using api::RunReport;
using api::VariantPlan;

// ---------------------------------------------------------------------------
// CacheKey collision regressions.
// ---------------------------------------------------------------------------

TEST(CacheKeyTest, DoubleFormattingIsRoundTripExact) {
  // std::to_string prints both of these "0.000000": any cost-model or noise
  // knob differing below 1e-6 aliased to one key.
  EXPECT_EQ(std::to_string(1e-7), std::to_string(2e-7));  // the old bug
  EXPECT_NE(api::CacheKeyDouble(1e-7), api::CacheKeyDouble(2e-7));
  EXPECT_NE(api::CacheKeyDouble(0.0035), api::CacheKeyDouble(0.0035 + 1e-9));
}

TEST(CacheKeyTest, SubMicroNoiseSigmaDeltasGetDistinctKeys) {
  auto key_at_sigma = [](double sigma) {
    workload::BenchmarkSpec spec = workload::Spec2006()[0];
    spec.noise_rel_sigma = sigma;
    auto key = NvxBuilder().Benchmark(spec).Variants(2).PlanCacheKey();
    EXPECT_TRUE(key.ok()) << key.status().ToString();
    return *key;
  };
  EXPECT_NE(key_at_sigma(1e-7), key_at_sigma(2e-7));
}

TEST(CacheKeyTest, SubMicroCostModelDeltasGetDistinctKeys) {
  auto key_at_alpha = [](double alpha) {
    nxe::CostModel cost;
    cost.llc_alpha = alpha;
    auto key = NvxBuilder()
                   .Benchmark(workload::Spec2006()[0])
                   .Variants(2)
                   .Cost(cost)
                   .PlanCacheKey();
    EXPECT_TRUE(key.ok()) << key.status().ToString();
    return *key;
  };
  EXPECT_NE(key_at_alpha(0.0035), key_at_alpha(0.0035 + 1e-9));
}

TEST(CacheKeyTest, ComponentsAreLengthPrefixed) {
  std::string crafted;
  api::AppendCacheKeyComponent(&crafted, "a|b");  // "3:a|b"
  std::string split;
  api::AppendCacheKeyComponent(&split, "a");  // "1:a" + literal "|b"
  split += "|b";
  EXPECT_NE(crafted, split);
}

TEST(CacheKeyTest, CraftedDetectorNameCannotAliasTwoInjections) {
  // Under the old unescaped format both produced "...|det1:a|det1:b".
  const workload::BenchmarkSpec& bench = workload::Spec2006()[0];
  auto one = NvxBuilder()
                 .Benchmark(bench)
                 .Variants(3)
                 .InjectDetection(1, "a|det1:b")
                 .PlanVariants();
  auto two = NvxBuilder()
                 .Benchmark(bench)
                 .Variants(3)
                 .InjectDetection(1, "a")
                 .InjectDetection(1, "b")
                 .PlanVariants();
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_NE(one->CacheKey(), two->CacheKey());
}

TEST(CacheKeyTest, CraftedDetectorCannotAliasAcrossInjectionKinds) {
  // Old format: detector "x|div1:y" == detector "x" + payload "y".
  const workload::BenchmarkSpec& bench = workload::Spec2006()[0];
  auto one = NvxBuilder()
                 .Benchmark(bench)
                 .Variants(3)
                 .InjectDetection(1, "x|div1:y")
                 .PlanVariants();
  auto two = NvxBuilder()
                 .Benchmark(bench)
                 .Variants(3)
                 .InjectDetection(1, "x")
                 .InjectDivergence(1, "y")
                 .PlanVariants();
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_NE(one->CacheKey(), two->CacheKey());
}

TEST(CacheKeyTest, BaseKeyIsComputableWithoutPlanningAndMatchesBasePlan) {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0])
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(7);
  auto key = builder.PlanCacheKey();
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  auto plan = builder.PlanVariants();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // No injections: the planned key IS the lookup key.
  EXPECT_EQ(plan->CacheKey(), *key);

  // Injections extend the base key, so the base stays the shared prefix.
  auto injected = builder.InjectDetection(2, "__asan_report_store").PlanVariants();
  ASSERT_TRUE(injected.ok());
  EXPECT_NE(injected->CacheKey(), *key);
  EXPECT_EQ(injected->CacheKey().rfind(*key, 0), 0u) << "base key must prefix the overlay key";
}

TEST(CacheKeyTest, PartitionOptionsAndOverheadsAreKeyed) {
  // Planning inputs that the old spec-derived key could only see indirectly
  // (or not at all) now split the key directly.
  NvxBuilder base;
  base.Benchmark(workload::Spec2006()[0]).Variants(4).DistributeChecks(san::SanitizerId::kASan);
  auto base_key = base.PlanCacheKey();
  ASSERT_TRUE(base_key.ok());

  partition::PartitionOptions greedy;
  greedy.algorithm = partition::Algorithm::kGreedyLpt;
  auto other_algo = NvxBuilder()
                        .Benchmark(workload::Spec2006()[0])
                        .Variants(4)
                        .DistributeChecks(san::SanitizerId::kASan)
                        .PartitionOptions(greedy)
                        .PlanCacheKey();
  ASSERT_TRUE(other_algo.ok());
  EXPECT_NE(*base_key, *other_algo);

  workload::BenchmarkSpec recalibrated = workload::Spec2006()[0];
  recalibrated.overheads.asan += 0.25;  // same name, different calibration
  auto other_overhead = NvxBuilder()
                            .Benchmark(recalibrated)
                            .Variants(4)
                            .DistributeChecks(san::SanitizerId::kASan)
                            .PlanCacheKey();
  ASSERT_TRUE(other_overhead.ok());
  EXPECT_NE(*base_key, *other_overhead);
}

// ---------------------------------------------------------------------------
// PlanCache mechanics: LRU order, counters, error handling.
// ---------------------------------------------------------------------------

std::shared_ptr<const VariantPlan> DummyPlan() {
  return std::make_shared<const VariantPlan>();
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PlanCache cache(/*capacity=*/2);
  cache.Insert("a", DummyPlan());
  cache.Insert("b", DummyPlan());
  EXPECT_NE(cache.Lookup("a"), nullptr);  // touch a: b becomes LRU
  cache.Insert("c", DummyPlan());         // evicts b

  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(PlanCacheTest, HitAndMissCountersTrackLookups) {
  PlanCache cache(4);
  size_t planned = 0;
  auto factory = [&planned]() -> StatusOr<VariantPlan> {
    ++planned;
    return VariantPlan();
  };

  bool hit = true;
  auto first = cache.GetOrPlan("k", factory, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second = cache.GetOrPlan("k", factory, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(planned, 1u);
  EXPECT_EQ(*first, *second) << "both callers must share one plan instance";

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, FactoryErrorsPropagateAndAreNotCached) {
  PlanCache cache(4);
  size_t calls = 0;
  auto failing = [&calls]() -> StatusOr<VariantPlan> {
    ++calls;
    return InvalidArgument("planning failed");
  };
  EXPECT_FALSE(cache.GetOrPlan("k", failing).ok());
  EXPECT_FALSE(cache.GetOrPlan("k", failing).ok());
  EXPECT_EQ(calls, 2u) << "errors must not poison the key";
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u) << "a failed planning run is never a hit";
}

TEST(PlanCacheTest, ThrowingFactoryDoesNotStrandTheKey) {
  PlanCache cache(4);
  auto throwing = []() -> StatusOr<VariantPlan> { throw std::runtime_error("planner bug"); };
  auto result = cache.GetOrPlan("k", throwing);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // The key must stay serviceable: a later (working) factory runs normally
  // instead of blocking on a stranded in-flight entry.
  auto recovered = cache.GetOrPlan("k", []() -> StatusOr<VariantPlan> { return VariantPlan(); });
  EXPECT_TRUE(recovered.ok());
}

// ---------------------------------------------------------------------------
// Builder integration: warm builds skip planning; overlays share the entry.
// ---------------------------------------------------------------------------

NvxBuilder CheckDistBuilder(std::shared_ptr<PlanCache> cache) {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0])
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(7)
      .WithPlanCache(std::move(cache));
  return builder;
}

TEST(PlanCacheSessionTest, WarmBuildSkipsReplanning) {
  auto cache = std::make_shared<PlanCache>(8);
  auto cold = CheckDistBuilder(cache).Build();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = CheckDistBuilder(cache).Build();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PlanCacheSessionTest, ObserverHookSeesHitAndMiss) {
  auto cache = std::make_shared<PlanCache>(8);
  std::vector<bool> hits;
  std::string seen_key;
  api::Observer observer;
  observer.on_plan_cache = [&hits, &seen_key](const std::string& key, bool hit) {
    hits.push_back(hit);
    seen_key = key;
  };
  auto first = CheckDistBuilder(cache).SetObserver(observer).Build();
  auto second = CheckDistBuilder(cache).SetObserver(observer).Build();
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_FALSE(hits[0]);
  EXPECT_TRUE(hits[1]);
  EXPECT_EQ(seen_key, *CheckDistBuilder(nullptr).PlanCacheKey());
}

TEST(PlanCacheSessionTest, InjectionOverlaysShareTheBaseEntry) {
  auto cache = std::make_shared<PlanCache>(8);
  auto clean = CheckDistBuilder(cache).Build();
  ASSERT_TRUE(clean.ok());
  // Same configuration + an attack splice: must HIT the clean entry, not
  // plan (or store) a second one.
  auto attacked = CheckDistBuilder(cache).InjectDetection(2, "__asan_report_store").Build();
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u) << "attack scenarios must not fragment the cache";

  auto clean_report = clean->Run();
  ASSERT_TRUE(clean_report.ok());
  EXPECT_EQ(clean_report->outcome, NvxOutcome::kOk);
  auto attack_report = attacked->Run();
  ASSERT_TRUE(attack_report.ok());
  EXPECT_EQ(attack_report->outcome, NvxOutcome::kDetected);
  EXPECT_EQ(attack_report->detection->variant, 2u);
  EXPECT_EQ(attack_report->detection->detector, "__asan_report_store");
}

TEST(PlanCacheSessionTest, OverlayIndexErrorsStillSurfaceAtBuild) {
  auto cache = std::make_shared<PlanCache>(8);
  auto bad = CheckDistBuilder(cache).InjectDetection(99, "__asan_report_store").Build();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanCacheSessionTest, CacheOnWrongTargetKindIsRejected) {
  // Opting into amortization that can never happen must fail loudly, not
  // silently re-plan forever.
  auto module = testutil::BuildBufferProgram();
  auto plan_on_module = NvxBuilder()
                            .Module(*module)
                            .Variants(2)
                            .DistributeUbsanSubSanitizers()
                            .WithPlanCache(std::make_shared<PlanCache>(4))
                            .Build();
  ASSERT_FALSE(plan_on_module.ok());
  EXPECT_EQ(plan_on_module.status().code(), StatusCode::kInvalidArgument);
}

// Cached and uncached sessions must be indistinguishable in what they
// compute — the whole point of the cache is to skip work, not change it.
TEST(PlanCacheSessionTest, CachedSessionBitIdenticalToUncached) {
  NvxBuilder uncached;
  uncached.Benchmark(workload::Spec2006()[0])
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(31)
      .MeasureStandalone();
  auto expected_session = uncached.Build();
  ASSERT_TRUE(expected_session.ok());
  auto expected = expected_session->Run();
  ASSERT_TRUE(expected.ok());

  auto cache = std::make_shared<PlanCache>(8);
  for (int round = 0; round < 2; ++round) {  // round 0 fills, round 1 hits
    NvxBuilder cached = uncached;
    auto session = cached.WithPlanCache(cache).Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto actual = session->Run();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();

    EXPECT_EQ(actual->outcome, expected->outcome);
    EXPECT_DOUBLE_EQ(actual->total_time, expected->total_time);
    EXPECT_EQ(actual->variant_finish_time, expected->variant_finish_time);
    EXPECT_EQ(actual->variant_standalone_time, expected->variant_standalone_time);
    EXPECT_EQ(actual->variant_compute_scale, expected->variant_compute_scale);
    EXPECT_EQ(actual->synced_syscalls, expected->synced_syscalls);
    EXPECT_EQ(actual->lockstep_barriers, expected->lockstep_barriers);
    ASSERT_TRUE(actual->baseline_time.has_value());
    EXPECT_DOUBLE_EQ(*actual->baseline_time, *expected->baseline_time);
  }
}

TEST(PlanCacheSessionTest, ShardedSessionsFromCachedPlanMatchUncached) {
  NvxBuilder uncached;
  uncached.Benchmark(workload::Spec2006()[2])
      .Variants(5)
      .InjectDivergence(3, "exfiltrated-secret")
      .Seed(23)
      .Shards(2);
  auto expected_session = uncached.Build();
  ASSERT_TRUE(expected_session.ok());
  auto expected = expected_session->Run();
  ASSERT_TRUE(expected.ok());

  auto cache = std::make_shared<PlanCache>(8);
  for (int round = 0; round < 2; ++round) {
    NvxBuilder cached = uncached;
    auto session = cached.WithPlanCache(cache).Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto actual = session->Run();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->outcome, expected->outcome);
    ASSERT_TRUE(actual->divergence.has_value());
    EXPECT_EQ(actual->divergence->variant, expected->divergence->variant);
    EXPECT_EQ(actual->divergence->sync_index, expected->divergence->sync_index);
    EXPECT_EQ(actual->divergence->detail, expected->divergence->detail);
    EXPECT_DOUBLE_EQ(actual->total_time, expected->total_time);
    EXPECT_EQ(actual->variant_finish_time, expected->variant_finish_time);
  }
  // The sharded builds share one base entry (injections overlaid per build).
  EXPECT_EQ(cache->stats().entries, 1u);
}

TEST(PlanCacheSessionTest, PlanVariantsConsultsTheCacheToo) {
  auto cache = std::make_shared<PlanCache>(8);
  auto first = CheckDistBuilder(cache).PlanVariants();
  auto second = CheckDistBuilder(cache).PlanVariants();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->CacheKey(), second->CacheKey());
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: one key, many builders, one plan instance. (TSan and ASan in CI.)
// ---------------------------------------------------------------------------

TEST(PlanCacheConcurrencyTest, ConcurrentBuildsOfOneKeyShareOnePlan) {
  auto cache = std::make_shared<PlanCache>(8);
  constexpr size_t kThreads = 8;
  std::vector<StatusOr<RunReport>> reports(kThreads, Status(StatusCode::kInternal, "pending"));
  {
    std::vector<std::thread> builders;
    builders.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      builders.emplace_back([&cache, &reports, t] {
        auto session = CheckDistBuilder(cache).Build();
        if (!session.ok()) {
          reports[t] = session.status();
          return;
        }
        reports[t] = session->Run();
      });
    }
    for (auto& thread : builders) {
      thread.join();
    }
  }

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u) << "exactly one thread may plan";
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1u);

  for (const auto& report : reports) {
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->outcome, NvxOutcome::kOk);
    EXPECT_DOUBLE_EQ(report->total_time, reports[0]->total_time);
  }
}

}  // namespace
}  // namespace bunshin
