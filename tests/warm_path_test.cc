// Tests for the warm-run path (docs/warm_path.md): sessions whose trace
// backends keep engine arenas in their per-run scratch must produce
// bit-identical RunReports to sessions run without a workspace, across every
// outcome class and the shard seam, and reused scratch must be safe under
// many concurrent sessions (this suite runs under ThreadSanitizer in CI
// alongside the async suites).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/nxe/engine.h"
#include "src/support/thread_pool.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

using api::CompletionQueue;
using api::NvxBuilder;
using api::NvxOutcome;
using api::RunReport;

// ---------------------------------------------------------------------------
// Pooled sessions reproduce fresh-engine sessions bit-identically.
// ---------------------------------------------------------------------------

void ExpectReportsBitIdentical(const RunReport& pooled, const RunReport& fresh) {
  EXPECT_EQ(pooled.outcome, fresh.outcome);
  EXPECT_EQ(pooled.aborted_all, fresh.aborted_all);
  // Exact (not ULP-tolerant) floating-point equality: the pooled path reuses
  // buffers but must replay the identical computation.
  EXPECT_EQ(pooled.total_time, fresh.total_time);
  EXPECT_EQ(pooled.variant_finish_time, fresh.variant_finish_time);
  EXPECT_EQ(pooled.variant_compute_scale, fresh.variant_compute_scale);
  EXPECT_EQ(pooled.variant_standalone_time, fresh.variant_standalone_time);
  ASSERT_EQ(pooled.baseline_time.has_value(), fresh.baseline_time.has_value());
  if (fresh.baseline_time.has_value()) {
    EXPECT_EQ(*pooled.baseline_time, *fresh.baseline_time);
  }
  EXPECT_EQ(pooled.synced_syscalls, fresh.synced_syscalls);
  EXPECT_EQ(pooled.ignored_syscalls, fresh.ignored_syscalls);
  EXPECT_EQ(pooled.lockstep_barriers, fresh.lockstep_barriers);
  EXPECT_EQ(pooled.lock_acquisitions, fresh.lock_acquisitions);
  EXPECT_EQ(pooled.max_syscall_gap, fresh.max_syscall_gap);
  EXPECT_EQ(pooled.avg_syscall_gap, fresh.avg_syscall_gap);
  ASSERT_EQ(pooled.detection.has_value(), fresh.detection.has_value());
  if (fresh.detection.has_value()) {
    EXPECT_EQ(pooled.detection->variant, fresh.detection->variant);
    EXPECT_EQ(pooled.detection->thread, fresh.detection->thread);
    EXPECT_EQ(pooled.detection->detector, fresh.detection->detector);
  }
  ASSERT_EQ(pooled.divergence.has_value(), fresh.divergence.has_value());
  if (fresh.divergence.has_value()) {
    EXPECT_EQ(pooled.divergence->variant, fresh.divergence->variant);
    EXPECT_EQ(pooled.divergence->thread, fresh.divergence->thread);
    EXPECT_EQ(pooled.divergence->sync_index, fresh.divergence->sync_index);
    EXPECT_EQ(pooled.divergence->expected, fresh.divergence->expected);
    EXPECT_EQ(pooled.divergence->actual, fresh.divergence->actual);
  }
}

// Builds the configured session twice — PooledEngines off and on — and
// requires every run of the pooled session (the first, cold, and two warm
// repeats that exercise reused arenas) to be bit-identical to the fresh one.
template <typename Configure>
void ExpectPooledEquivalence(Configure configure, const char* what) {
  NvxBuilder fresh_builder;
  configure(fresh_builder);
  auto fresh_session = fresh_builder.PooledEngines(false).Build();
  ASSERT_TRUE(fresh_session.ok()) << what << ": " << fresh_session.status().ToString();
  auto fresh = fresh_session->Run();
  ASSERT_TRUE(fresh.ok()) << what << ": " << fresh.status().ToString();

  NvxBuilder pooled_builder;
  configure(pooled_builder);
  auto pooled_session = pooled_builder.PooledEngines(true).Build();
  ASSERT_TRUE(pooled_session.ok()) << what << ": " << pooled_session.status().ToString();
  for (int repeat = 0; repeat < 3; ++repeat) {
    SCOPED_TRACE(std::string(what) + " pooled run " + std::to_string(repeat));
    auto pooled = pooled_session->Run();
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    ExpectReportsBitIdentical(*pooled, *fresh);
  }
}

TEST(PooledEquivalenceTest, CleanRunMatchesFresh) {
  ExpectPooledEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[0]).Variants(6).MeasureStandalone().Seed(11);
      },
      "identical/clean");
}

TEST(PooledEquivalenceTest, DetectionMatchesFresh) {
  ExpectPooledEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[0])
            .Variants(6)
            .DistributeChecks(san::SanitizerId::kASan)
            .InjectDetection(3, "__asan_report_store")
            .Seed(17);
      },
      "check/detection");
}

TEST(PooledEquivalenceTest, DivergenceMatchesFresh) {
  ExpectPooledEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[2])
            .Variants(5)
            .InjectDivergence(3, "exfiltrated-secret")
            .Seed(23);
      },
      "identical/divergence");
}

TEST(PooledEquivalenceTest, ShardedSessionMatchesFresh) {
  // Every shard group runs on the one scratch's arenas, and the merged
  // report must still be bit-identical to the unpooled one.
  ExpectPooledEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[1])
            .Variants(5)
            .Lockstep(nxe::LockstepMode::kSelective)
            .Shards(2)
            .Seed(13);
      },
      "identical/sharded");
}

// ---------------------------------------------------------------------------
// 16 concurrent warm sessions on one CompletionQueue.
// ---------------------------------------------------------------------------

TEST(WarmPathConcurrencyTest, SixteenAsyncSessionsOnOneQueue) {
  constexpr size_t kSessions = 16;
  constexpr size_t kRunsPerSession = 4;

  // The reference verdict every concurrent run must reproduce.
  NvxBuilder reference_builder;
  reference_builder.Benchmark(workload::Spec2006()[0]).Variants(4).Seed(41);
  auto reference_session = reference_builder.PooledEngines(false).Build();
  ASSERT_TRUE(reference_session.ok());
  auto reference = reference_session->Run();
  ASSERT_TRUE(reference.ok());

  auto workers = std::make_shared<support::ThreadPool>(4);
  CompletionQueue done;

  std::vector<api::AsyncNvxSession> sessions;
  sessions.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    NvxBuilder builder;
    builder.Benchmark(workload::Spec2006()[0]).Variants(4).Seed(41);
    auto session = builder.BuildAsync(workers);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(*session));
  }
  for (size_t s = 0; s < kSessions; ++s) {
    for (size_t r = 0; r < kRunsPerSession; ++r) {
      sessions[s].Submit({}, &done, s * kRunsPerSession + r);
    }
  }
  for (size_t i = 0; i < kSessions * kRunsPerSession; ++i) {
    api::CompletionEvent event = done.Wait();
    ASSERT_TRUE(event.report.ok()) << event.report.status().ToString();
    ExpectReportsBitIdentical(*event.report, *reference);
  }
}

}  // namespace
}  // namespace bunshin
