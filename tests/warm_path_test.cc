// Tests for the warm-run path (docs/warm_path.md): sessions whose trace
// runs check engine arenas out of the shared working memory must produce
// bit-identical RunReports to sessions run without a workspace, across every
// outcome class and the shard seam, and reused scratch must be safe under
// many concurrent sessions (this suite runs under ThreadSanitizer in CI
// alongside the async suites). An idle session holds only its replay state,
// and a session moving from seed to seed rebuilds it in place.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/nxe/engine.h"
#include "src/support/thread_pool.h"
#include "src/workload/workload.h"
#include "tests/heap_counter.h"
#include "tests/testutil.h"

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
      sessions[s].Submit({}, done, s * kRunsPerSession + r);
    }
  }
  for (size_t i = 0; i < kSessions * kRunsPerSession; ++i) {
    api::CompletionEvent event = done.Wait();
    ASSERT_TRUE(event.report.ok()) << event.report.status().ToString();
    ExpectReportsBitIdentical(*event.report, *reference);
  }
}

// ---------------------------------------------------------------------------
// What a session keeps between runs.
// ---------------------------------------------------------------------------

uint64_t FreshSeed(size_t i) { return 0xF2E5'0000 + i; }

// Runs `session` once at `seed` and recycles the report.
void RunAt(const api::NvxSession& session, uint64_t seed) {
  api::RunRequest request;
  request.workload_seed = seed;
  auto report = session.Run(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  api::RecycleReport(std::move(*report));
}

// fresh_local-shaped sessions, after one fresh-seed run each, hold their
// member traces and the record tables those borrow, plus a little
// bookkeeping: the rest of the template, the engine arenas and the baseline
// trace are working memory, checked out of one process-wide freelist for
// the length of a run.
TEST(SessionMemoryTest, IdleSessionsHoldOnlyTheirReplayState) {
  constexpr size_t kSessions = 24;
  // The scratch object and its slot on its backend's freelist.
  constexpr int64_t kBookkeepingBytes = 512;

  // A throwaway session of each shape runs first, at the seed its measured
  // twin runs below, so process-wide state is in place: the noise tapes and
  // the report and working-memory freelists.
  std::vector<api::VariantPlan> plans;
  for (size_t i = 0; i < kSessions; ++i) {
    const NvxBuilder builder = testutil::FreshLocalShaped(i);
    auto plan = builder.PlanVariants();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(*plan));
    auto session = builder.Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    RunAt(*session, FreshSeed(i));
  }
  std::vector<api::NvxSession> sessions;
  sessions.reserve(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    auto session = testutil::FreshLocalShaped(i).Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(*session));
  }

  const int64_t before = testutil::HeapHeld();
  for (size_t i = 0; i < kSessions; ++i) {
    RunAt(sessions[i], FreshSeed(i));
  }
  const int64_t held = testutil::HeapHeld() - before;
  int64_t replay = 0;
  for (size_t i = 0; i < kSessions; ++i) {
    const int64_t bytes = testutil::ReplayStateBytes(plans[i], FreshSeed(i));
    ASSERT_GT(bytes, 0);
    replay += bytes;
  }
  EXPECT_LE(held, replay + static_cast<int64_t>(kSessions) * kBookkeepingBytes)
      << "per session: " << held / static_cast<int64_t>(kSessions) << " bytes held, "
      << replay / static_cast<int64_t>(kSessions) << " of them replay state";
}

// A session alternating two fresh seeds rebuilds its template (in the
// shared working memory) into the same record tables, which it lends to the
// template and takes back, and re-derives into buffers that already fit:
// once both seeds have run, a run allocates only what rebuilding its
// template in place does, which is nothing (the template keeps its event
// list's capacity). A borrow of the tables that outlived its run (the
// baseline trace lives in the shared working memory) would make each
// rebuild swap in a new table per template thread.
TEST(SessionMemoryTest, FreshSeedsRefillTheTemplateInPlace) {
  for (size_t shape = 0; shape < 4; ++shape) {
    SCOPED_TRACE("fresh_local shape " + std::to_string(shape));
    const NvxBuilder builder = testutil::FreshLocalShaped(shape);
    auto plan = builder.PlanVariants();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    workload::TraceTemplate tmpl;
    api::BuildPlanTemplate(*plan, FreshSeed(0), &tmpl);
    api::BuildPlanTemplate(*plan, FreshSeed(1), &tmpl);
    uint64_t before = testutil::HeapAllocations();
    api::BuildPlanTemplate(*plan, FreshSeed(0), &tmpl);
    const uint64_t rebuild = testutil::HeapAllocations() - before;
    EXPECT_EQ(rebuild, 0u) << "an in-place template rebuild allocated";

    auto session = builder.Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    RunAt(*session, FreshSeed(0));
    RunAt(*session, FreshSeed(1));
    before = testutil::HeapAllocations();
    for (int round = 0; round < 3; ++round) {
      RunAt(*session, FreshSeed(0));
      RunAt(*session, FreshSeed(1));
    }
    EXPECT_EQ(testutil::HeapAllocations() - before, 6 * rebuild);
  }
}

// The run memory's template is rebuilt by whichever session runs a new
// seed: on this thread every run checks out the same block. Sessions of a
// one-thread and a four-thread program take turns at it between two runs of
// two other sessions at one seed each. Those sessions' traces borrow record
// tables they keep, so their replays are bit-identical: a clean one, which
// allocates nothing, and a divergence, whose report names the leader's
// borrowed record. Once the turn-takers have run both their seeds, their
// fresh-seed runs allocate nothing either: the template and the baseline
// trace keep each thread's buffers across thread counts.
TEST(SessionMemoryTest, RunTemplateRebuildsLeaveOtherSessionsReplaysAlone) {
  const auto session_of = [](const char* name, size_t n) {
    NvxBuilder builder;
    builder.Benchmark(*workload::FindBenchmark(name))
        .Variants(n)
        .DistributeChecks(san::SanitizerId::kASan);
    return builder;
  };
  auto clean = session_of("bzip2", 4).Build();
  auto diverged = session_of("bzip2", 4).InjectDivergence(2, "exfiltrated").Build();
  auto one_thread = session_of("perlbench", 4).Build();
  auto four_threads = session_of("radiosity", 8).Build();
  ASSERT_TRUE(clean.ok() && diverged.ok() && one_thread.ok() && four_threads.ok());

  api::RunRequest request;
  request.workload_seed = FreshSeed(20);
  auto clean_first = clean->Run(request);
  auto diverged_first = diverged->Run(request);
  ASSERT_TRUE(clean_first.ok() && diverged_first.ok());
  ASSERT_EQ(clean_first->outcome, NvxOutcome::kOk);
  ASSERT_EQ(diverged_first->outcome, NvxOutcome::kDiverged);
  for (int round = 0; round < 2; ++round) {
    RunAt(*one_thread, FreshSeed(21 + round));
    RunAt(*four_threads, FreshSeed(23 + round));
  }
  const uint64_t before = testutil::HeapAllocations();
  for (int round = 2; round < 6; ++round) {
    RunAt(*one_thread, FreshSeed(21 + round % 2));
    RunAt(*four_threads, FreshSeed(23 + round % 2));
  }
  EXPECT_EQ(testutil::HeapAllocations() - before, 0u)
      << "fresh-seed runs of a one-thread and a four-thread program allocated";

  const uint64_t replay_before = testutil::HeapAllocations();
  auto clean_replay = clean->Run(request);
  const uint64_t replay_allocs = testutil::HeapAllocations() - replay_before;
  ASSERT_TRUE(clean_replay.ok()) << clean_replay.status().ToString();
  ExpectReportsBitIdentical(*clean_replay, *clean_first);
  EXPECT_EQ(replay_allocs, 0u) << "the clean replay allocated";
  auto diverged_replay = diverged->Run(request);
  ASSERT_TRUE(diverged_replay.ok()) << diverged_replay.status().ToString();
  ExpectReportsBitIdentical(*diverged_replay, *diverged_first);
}

// A replayed Shards(4) session whose reports are recycled allocates nothing
// once warm, like an unsharded one (micro_warm_session's gate): the group
// partials and their member lists are run memory, and RunReport::Merge marks
// owned slots on the stack.
TEST(SessionMemoryTest, WarmShardedReplayAllocatesNothing) {
  for (const char* name : {"perlbench", "radiosity"}) {
    SCOPED_TRACE(name);
    NvxBuilder builder;
    builder.Benchmark(*workload::FindBenchmark(name))
        .Variants(8)
        .DistributeChecks(san::SanitizerId::kASan)
        .Shards(4)
        .Seed(FreshSeed(30));
    auto session = builder.Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int warm = 0; warm < 3; ++warm) {
      RunAt(*session, FreshSeed(30));
    }
    const uint64_t before = testutil::HeapAllocations();
    for (int run = 0; run < 10; ++run) {
      RunAt(*session, FreshSeed(30));
    }
    EXPECT_EQ(testutil::HeapAllocations() - before, 0u);
  }
}

}  // namespace
}  // namespace bunshin
