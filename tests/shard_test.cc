// Tests for the plan/execute seam and sharded sessions (src/api/plan.h,
// NvxBuilder::Shards): RunReport::Merge semantics over hand-built partials,
// VariantPlan caching keys, the acceptance property that Shards(k).Build()
// reproduces the unsharded session's outcome and incident attribution for
// every strategy, and that sharded sessions run on their callers without
// threads of their own. This suite runs under ThreadSanitizer and
// AddressSanitizer in CI alongside the async suites.
#include <gtest/gtest.h>

#include <dirent.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/support/thread_pool.h"

namespace bunshin {
namespace {

using api::CompletionQueue;
using api::NvxBuilder;
using api::NvxOutcome;
using api::PartialReport;
using api::RunReport;

// ---------------------------------------------------------------------------
// RunReport::Merge over hand-built partials.
// ---------------------------------------------------------------------------

// A clean partial covering `variant_index`, with per-slot finish times.
PartialReport CleanPartial(std::vector<size_t> variant_index, bool owns_baseline,
                           double total_time) {
  PartialReport partial;
  partial.variant_index = std::move(variant_index);
  partial.owns_baseline = owns_baseline;
  partial.report.backend = "trace";
  partial.report.outcome = NvxOutcome::kOk;
  partial.report.total_time = total_time;
  for (size_t i = 0; i < partial.variant_index.size(); ++i) {
    partial.report.variant_finish_time.push_back(total_time - static_cast<double>(i));
    partial.report.variant_compute_scale.push_back(1.0 + static_cast<double>(i));
  }
  partial.report.synced_syscalls = 10;
  partial.report.lockstep_barriers = 10;
  return partial;
}

TEST(MergeTest, RejectsNoPartials) {
  auto merged = RunReport::Merge(3, {});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeTest, EmptyShardContributesNothing) {
  PartialReport empty;  // a shard group that held no variants at all
  auto merged = RunReport::Merge(3, {CleanPartial({0, 1, 2}, true, 100.0), empty});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->outcome, NvxOutcome::kOk);
  EXPECT_DOUBLE_EQ(merged->total_time, 100.0);
  ASSERT_EQ(merged->variant_finish_time.size(), 3u);
  EXPECT_DOUBLE_EQ(merged->variant_finish_time[1], 99.0);
  EXPECT_EQ(merged->synced_syscalls, 10u);  // the empty shard adds none
}

TEST(MergeTest, ScattersOwnedSlotsAndSkipsLeaderReplica) {
  // Shard A owns the baseline + variant 2; shard B runs a leader replica
  // (local slot 0 -> global 0) it does not own, plus variants 1 and 3.
  PartialReport a = CleanPartial({0, 2}, true, 50.0);
  a.report.baseline_time = 25.0;
  PartialReport b = CleanPartial({0, 1, 3}, false, 80.0);

  auto merged = RunReport::Merge(4, {a, b});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_DOUBLE_EQ(merged->total_time, 80.0);  // slowest shard
  ASSERT_TRUE(merged->baseline_time.has_value());
  EXPECT_DOUBLE_EQ(*merged->baseline_time, 25.0);
  EXPECT_DOUBLE_EQ(*merged->Overhead(), 80.0 / 25.0 - 1.0);
  // Leader slot comes from A (its local 0), not B's replica.
  EXPECT_DOUBLE_EQ(merged->variant_finish_time[0], 50.0);
  EXPECT_DOUBLE_EQ(merged->variant_finish_time[2], 49.0);
  EXPECT_DOUBLE_EQ(merged->variant_finish_time[1], 79.0);
  EXPECT_DOUBLE_EQ(merged->variant_finish_time[3], 78.0);
  // Counters sum across shards (the replica's monitor work is real).
  EXPECT_EQ(merged->synced_syscalls, 20u);
  EXPECT_EQ(merged->lockstep_barriers, 20u);
}

TEST(MergeTest, DetectionInTwoShardsEarliestVirtualTimeWins) {
  PartialReport late = CleanPartial({0, 1}, true, 90.0);
  late.report.outcome = NvxOutcome::kDetected;
  late.report.detection = api::Detection{1, 0, "__asan_report_load"};
  late.report.aborted_all = true;

  PartialReport early = CleanPartial({0, 2, 3}, false, 40.0);
  early.report.outcome = NvxOutcome::kDetected;
  early.report.detection = api::Detection{2, 1, "__msan_warning"};  // local slot 2 -> global 3
  early.report.aborted_all = true;

  // Listed late-first: the merge must still pick the earlier abort.
  auto merged = RunReport::Merge(4, {late, early});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->outcome, NvxOutcome::kDetected);
  ASSERT_TRUE(merged->detection.has_value());
  EXPECT_EQ(merged->detection->variant, 3u);  // remapped to the global slot
  EXPECT_EQ(merged->detection->thread, 1u);
  EXPECT_EQ(merged->detection->detector, "__msan_warning");
  EXPECT_TRUE(merged->aborted_all);
}

TEST(MergeTest, DetectionOutranksDivergence) {
  PartialReport diverged = CleanPartial({0, 1}, true, 10.0);  // earlier in time...
  diverged.report.outcome = NvxOutcome::kDiverged;
  diverged.report.divergence = api::Divergence{1, 0, 5, "write(64)", "write(13)", ""};
  diverged.report.aborted_all = true;

  PartialReport detected = CleanPartial({0, 2}, false, 70.0);
  detected.report.outcome = NvxOutcome::kDetected;
  detected.report.detection = api::Detection{1, 0, "__asan_report_store"};
  detected.report.aborted_all = true;

  // ...but the lattice puts Detection above Divergence regardless.
  auto merged = RunReport::Merge(3, {diverged, detected});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->outcome, NvxOutcome::kDetected);
  EXPECT_EQ(merged->detection->variant, 2u);
  EXPECT_FALSE(merged->divergence.has_value());
}

TEST(MergeTest, DivergenceInOneShardCleanInRest) {
  PartialReport clean = CleanPartial({0, 1}, true, 100.0);
  PartialReport diverged = CleanPartial({0, 2, 3}, false, 60.0);
  diverged.report.outcome = NvxOutcome::kDiverged;
  diverged.report.divergence =
      api::Divergence{1, 0, 7, "write(64)", "write(13)", "variant 1 expected 'write(64)' got 'write(13)'"};
  diverged.report.aborted_all = true;

  auto merged = RunReport::Merge(4, {clean, diverged});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->outcome, NvxOutcome::kDiverged);
  ASSERT_TRUE(merged->divergence.has_value());
  EXPECT_EQ(merged->divergence->variant, 2u);     // local 1 -> global 2
  EXPECT_EQ(merged->divergence->sync_index, 7u);  // leader-relative position survives
  EXPECT_EQ(merged->divergence->expected, "write(64)");
  EXPECT_EQ(merged->divergence->actual, "write(13)");
  // The detail names the *global* variant after the merge.
  EXPECT_EQ(merged->divergence->detail, "variant 2 expected 'write(64)' got 'write(13)'");
  EXPECT_TRUE(merged->aborted_all);
  EXPECT_DOUBLE_EQ(merged->total_time, 100.0);  // the clean shard ran to completion
}

TEST(MergeTest, RejectsDoublyOwnedSlotAndBadIndex) {
  auto doubled = RunReport::Merge(3, {CleanPartial({0, 1}, true, 10.0),
                                      CleanPartial({0, 1}, false, 10.0)});
  ASSERT_FALSE(doubled.ok());
  EXPECT_EQ(doubled.status().code(), StatusCode::kInvalidArgument);

  auto out_of_range = RunReport::Merge(2, {CleanPartial({0, 5}, true, 10.0)});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// VariantPlan: the cacheable planning product.
// ---------------------------------------------------------------------------

TEST(VariantPlanTest, PlanCarriesSpecsAndCacheKeyIdentifiesConfig) {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(4).Seed(7);
  auto plan = builder.PlanVariants();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->n_variants(), 4u);
  EXPECT_EQ(plan->specs.size(), 4u);
  EXPECT_EQ(plan->labels.size(), 4u);

  // Same configuration -> same key (the session-batching cache contract).
  auto replanned = builder.PlanVariants();
  ASSERT_TRUE(replanned.ok());
  EXPECT_EQ(plan->CacheKey(), replanned->CacheKey());

  // Any plan-shaping knob changes the key.
  auto reseeded = NvxBuilder().Benchmark(workload::Spec2006()[0]).Variants(4).Seed(8).PlanVariants();
  ASSERT_TRUE(reseeded.ok());
  EXPECT_NE(plan->CacheKey(), reseeded->CacheKey());
  auto distributed = NvxBuilder()
                         .Benchmark(workload::Spec2006()[0])
                         .Variants(4)
                         .Seed(7)
                         .DistributeChecks(san::SanitizerId::kASan)
                         .PlanVariants();
  ASSERT_TRUE(distributed.ok());
  EXPECT_NE(plan->CacheKey(), distributed->CacheKey());
}

TEST(VariantPlanTest, BuilderValidatesShardConfigurations) {
  auto zero = NvxBuilder().Benchmark(workload::Spec2006()[0]).Variants(2).Shards(0).Build();
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  ir::Module module;
  auto on_module = NvxBuilder()
                       .Module(module)
                       .Variants(2)
                       .DistributeUbsanSubSanitizers()
                       .Shards(2)
                       .Build();
  ASSERT_FALSE(on_module.ok());
  EXPECT_EQ(on_module.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharded sessions reproduce the unsharded session.
// ---------------------------------------------------------------------------

// Applies `configure` to a fresh builder, optionally shards it, and runs it.
template <typename Configure>
StatusOr<RunReport> RunConfigured(Configure configure, size_t shards) {
  NvxBuilder builder;
  configure(builder);
  if (shards > 0) {
    builder.Shards(shards);
  }
  auto session = builder.Build();
  if (!session.ok()) {
    return session.status();
  }
  return session->Run();
}

template <typename Configure>
void ExpectShardingEquivalence(Configure configure, const char* what) {
  auto unsharded = RunConfigured(configure, 0);
  ASSERT_TRUE(unsharded.ok()) << what << ": " << unsharded.status().ToString();
  for (size_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::string(what) + " with Shards(" + std::to_string(k) + ")");
    auto sharded = RunConfigured(configure, k);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    EXPECT_EQ(sharded->backend, unsharded->backend);
    EXPECT_EQ(sharded->outcome, unsharded->outcome);
    EXPECT_EQ(sharded->aborted_all, unsharded->aborted_all);
    // Detection attribution must match exactly.
    ASSERT_EQ(sharded->detection.has_value(), unsharded->detection.has_value());
    if (unsharded->detection.has_value()) {
      EXPECT_EQ(sharded->detection->variant, unsharded->detection->variant);
      EXPECT_EQ(sharded->detection->thread, unsharded->detection->thread);
      EXPECT_EQ(sharded->detection->detector, unsharded->detection->detector);
    }
    // Divergence attribution must match exactly (leader-relative).
    ASSERT_EQ(sharded->divergence.has_value(), unsharded->divergence.has_value());
    if (unsharded->divergence.has_value()) {
      EXPECT_EQ(sharded->divergence->variant, unsharded->divergence->variant);
      EXPECT_EQ(sharded->divergence->thread, unsharded->divergence->thread);
      EXPECT_EQ(sharded->divergence->sync_index, unsharded->divergence->sync_index);
      EXPECT_EQ(sharded->divergence->expected, unsharded->divergence->expected);
      EXPECT_EQ(sharded->divergence->actual, unsharded->divergence->actual);
      EXPECT_EQ(sharded->divergence->detail, unsharded->divergence->detail);
    }
    // Shard 0 measures the same baseline the unsharded session does, and
    // per-variant sanitizer load is plan-derived, so both must be identical.
    ASSERT_EQ(sharded->baseline_time.has_value(), unsharded->baseline_time.has_value());
    if (unsharded->baseline_time.has_value()) {
      EXPECT_DOUBLE_EQ(*sharded->baseline_time, *unsharded->baseline_time);
    }
    EXPECT_EQ(sharded->variant_compute_scale, unsharded->variant_compute_scale);
  }
}

TEST(ShardedSessionTest, IdenticalCleanRunMatchesUnsharded) {
  ExpectShardingEquivalence(
      [](NvxBuilder& b) { b.Benchmark(workload::Spec2006()[0]).Variants(6).Seed(11); },
      "identical/clean");
}

TEST(ShardedSessionTest, SelectiveLockstepCleanRunMatchesUnsharded) {
  ExpectShardingEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[1])
            .Variants(5)
            .Lockstep(nxe::LockstepMode::kSelective)
            .Seed(13);
      },
      "identical/selective");
}

TEST(ShardedSessionTest, CheckDistributionDetectionMatchesUnsharded) {
  ExpectShardingEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[0])
            .Variants(6)
            .DistributeChecks(san::SanitizerId::kASan)
            .InjectDetection(3, "__asan_report_store")
            .Seed(17);
      },
      "check/detection");
}

TEST(ShardedSessionTest, SanitizerDistributionMatchesUnsharded) {
  ExpectShardingEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[0])  // perlbench: MSan supported
            .Variants(3)
            .DistributeSanitizers(
                {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan})
            .Seed(19);
      },
      "sanitizer/clean");
}

TEST(ShardedSessionTest, DivergenceAttributionMatchesUnsharded) {
  ExpectShardingEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[2])
            .Variants(5)
            .InjectDivergence(3, "exfiltrated-secret")
            .Seed(23);
      },
      "identical/divergence");
}

TEST(ShardedSessionTest, MoreShardsThanFollowersSkipsEmptyGroups) {
  // Variants(2) has one follower: Shards(4) degenerates to one real shard
  // (plus skipped empty groups) and must still match the unsharded run.
  ExpectShardingEquivalence(
      [](NvxBuilder& b) { b.Benchmark(workload::Spec2006()[3]).Variants(2).Seed(29); },
      "identical/overprovisioned");
}

TEST(ShardedSessionTest, SingleShardReportIsBitIdentical) {
  // Shards(1) routes through dispatch + merge with one partial: everything,
  // including timing and telemetry, must survive the round-trip.
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(4).Seed(31).MeasureStandalone();
  auto unsharded = builder.Build();
  ASSERT_TRUE(unsharded.ok());
  auto expected = unsharded->Run();
  ASSERT_TRUE(expected.ok());

  auto sharded = builder.Shards(1).Build();
  ASSERT_TRUE(sharded.ok());
  auto actual = sharded->Run();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  EXPECT_DOUBLE_EQ(actual->total_time, expected->total_time);
  EXPECT_EQ(actual->variant_finish_time, expected->variant_finish_time);
  EXPECT_EQ(actual->variant_standalone_time, expected->variant_standalone_time);
  EXPECT_EQ(actual->synced_syscalls, expected->synced_syscalls);
  EXPECT_EQ(actual->ignored_syscalls, expected->ignored_syscalls);
  EXPECT_EQ(actual->lockstep_barriers, expected->lockstep_barriers);
  EXPECT_EQ(actual->lock_acquisitions, expected->lock_acquisitions);
}

TEST(ShardedSessionTest, StandaloneTimesScatterAcrossShards) {
  // Each follower's standalone time is measured by the shard that owns it
  // (non-owning leader replicas are skipped, not re-simulated) and must
  // land in the right global slot with the unsharded value.
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0])
      .Variants(5)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(43)
      .MeasureStandalone();
  auto unsharded = builder.Build();
  ASSERT_TRUE(unsharded.ok());
  auto expected = unsharded->Run();
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->variant_standalone_time.size(), 5u);

  auto sharded = builder.Shards(2).Build();
  ASSERT_TRUE(sharded.ok());
  auto actual = sharded->Run();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(actual->variant_standalone_time.size(), 5u);
  for (size_t v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(actual->variant_standalone_time[v], expected->variant_standalone_time[v])
        << "variant " << v;
  }
}

// ---------------------------------------------------------------------------
// Concurrent callers and the async layer (the TSan-sensitive paths).
// ---------------------------------------------------------------------------

// Threads of this process, from /proc/self/task.
size_t CountThreads() {
  size_t n = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      n += entry->d_name[0] != '.';
    }
    closedir(dir);
  }
  return n;
}

TEST(ShardedSessionTest, BuildSpawnsNoThreads) {
  const size_t before = CountThreads();
  ASSERT_GT(before, 0u);
  std::vector<api::NvxSession> sessions;
  for (uint64_t i = 0; i < 8; ++i) {
    auto session = NvxBuilder()
                       .Benchmark(workload::Spec2006()[0])
                       .Variants(8)
                       .DistributeChecks(san::SanitizerId::kASan)
                       .Shards(4)
                       .Seed(60 + i)
                       .Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto report = session->Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->outcome, NvxOutcome::kOk);
    sessions.push_back(std::move(*session));
  }
  // Counted while every session is alive: a session that owned threads
  // would still hold them here.
  EXPECT_EQ(CountThreads(), before);
}

TEST(ShardedSessionTest, FourCallersShareOneShardedSession) {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(6).Seed(37);
  auto plain = builder.Build();
  ASSERT_TRUE(plain.ok());
  auto expected = plain->Run();
  ASSERT_TRUE(expected.ok());

  auto session = builder.Shards(2).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_STREQ(session->backend_name(), "trace");  // substrate identity kept
  EXPECT_EQ(session->n_variants(), 6u);

  // Concurrent sharded runs of one session, one per caller thread.
  std::vector<StatusOr<RunReport>> reports(4, Status(StatusCode::kInternal, "pending"));
  {
    std::vector<std::thread> callers;
    callers.reserve(reports.size());
    for (auto& slot : reports) {
      callers.emplace_back([&slot, &session] { slot = session->Run(); });
    }
    for (auto& caller : callers) {
      caller.join();
    }
  }
  for (const auto& report : reports) {
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->outcome, expected->outcome);
    EXPECT_DOUBLE_EQ(*report->baseline_time, *expected->baseline_time);
  }
}

TEST(ShardedSessionTest, AsyncSubmissionsDrainOneQueue) {
  CompletionQueue done;
  auto clean = NvxBuilder()
                   .Benchmark(workload::Spec2006()[0])
                   .Variants(4)
                   .Shards(2)
                   .BuildAsync();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto detect = NvxBuilder()
                    .Benchmark(workload::Spec2006()[0])
                    .Variants(4)
                    .Shards(2)
                    .InjectDetection(2, "__asan_report_load")
                    .BuildAsync(clean->pool());
  ASSERT_TRUE(detect.ok()) << detect.status().ToString();

  constexpr uint64_t kClean = 0, kDetect = 1;
  for (uint64_t i = 0; i < 6; ++i) {
    api::RunRequest request;
    request.workload_seed = 50 + i;
    clean->Submit(request, &done, 10 * i + kClean);
    detect->Submit({}, &done, 10 * i + kDetect);
  }
  size_t ok = 0, detected = 0;
  for (size_t i = 0; i < 12; ++i) {
    api::CompletionEvent event = done.Wait();
    ASSERT_TRUE(event.report.ok()) << event.report.status().ToString();
    if (event.token % 10 == kClean) {
      EXPECT_EQ(event.report->outcome, NvxOutcome::kOk);
      ++ok;
    } else {
      EXPECT_EQ(event.report->outcome, NvxOutcome::kDetected);
      EXPECT_EQ(event.report->detection->variant, 2u);
      ++detected;
    }
  }
  EXPECT_EQ(ok, 6u);
  EXPECT_EQ(detected, 6u);
}

TEST(ShardedSessionTest, SingleWorkerPoolCannotStarveItsOwnShards) {
  // A deliberately undersized user pool: every shard group of a run executes
  // on the one worker running it, so nothing waits on a second worker.
  auto pool = std::make_shared<support::ThreadPool>(1);
  auto session = NvxBuilder()
                     .Benchmark(workload::Spec2006()[1])
                     .Variants(4)
                     .Shards(3)
                     .Seed(41)
                     .BuildAsync(pool);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<api::RunHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(session->Submit());
  }
  for (auto& handle : handles) {
    auto report = handle.Wait();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->outcome, NvxOutcome::kOk);
  }
}

TEST(ShardedSessionTest, ObserverBlocksStaySequencedAcrossShardedRuns) {
  std::vector<std::string> events;
  api::Observer observer;
  observer.on_variant_finish = [&events](size_t variant, double) {
    events.push_back("finish" + std::to_string(variant));
  };
  observer.on_incident = [&events](const RunReport& report) {
    EXPECT_EQ(report.outcome, NvxOutcome::kDetected);
    events.push_back("incident");
  };

  constexpr size_t kRuns = 8;
  {
    auto session = NvxBuilder()
                       .Benchmark(workload::Spec2006()[0])
                       .Variants(4)
                       .Shards(2)
                       .InjectDetection(3, "__asan_report_store")
                       .SetObserver(observer)
                       .BuildAsync(std::make_shared<support::ThreadPool>(3));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < kRuns; ++i) {
      session->Submit();
    }
  }  // destructor waits for all runs

  ASSERT_EQ(events.size(), kRuns * 5);
  for (size_t block = 0; block < kRuns; ++block) {
    for (size_t v = 0; v < 4; ++v) {
      EXPECT_EQ(events[block * 5 + v], "finish" + std::to_string(v)) << "block " << block;
    }
    EXPECT_EQ(events[block * 5 + 4], "incident") << "block " << block;
  }
}

}  // namespace
}  // namespace bunshin
