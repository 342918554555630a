// Tests for the async session layer (src/api/async.h): the thread pool, the
// shared CompletionQueue over both backends, and per-session observer
// sequencing under concurrent completions. This suite is the one CI runs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/support/thread_pool.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using api::AsyncNvxSession;
using api::CompletionEvent;
using api::CompletionQueue;
using api::NvxBuilder;
using api::NvxOutcome;
using api::Observer;
using api::RunReport;
using testutil::ExpectDrained;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.n_workers(), 4u);
  std::atomic<int> count{0};
  std::latch finished(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count, &finished] {
      ++count;
      finished.count_down();
    });
  }
  finished.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> count{0};
  {
    support::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ZeroWorkersMeansHardwareConcurrency) {
  support::ThreadPool pool(0);
  EXPECT_GE(pool.n_workers(), 1u);
}

// ---------------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------------

TEST(CompletionQueueTest, DeliversInPushOrder) {
  CompletionQueue queue;
  RunReport report;
  queue.Push(CompletionEvent{7, report});
  queue.Push(CompletionEvent{9, report});
  EXPECT_EQ(queue.Wait().token, 7u);
  EXPECT_EQ(queue.Wait().token, 9u);
  ExpectDrained(queue);
}

// ---------------------------------------------------------------------------
// AsyncNvxSession: results match synchronous runs.
// ---------------------------------------------------------------------------

TEST(AsyncSessionTest, QueuedResultsMatchSynchronousRuns) {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(3);

  auto sync_session = builder.Build();
  ASSERT_TRUE(sync_session.ok()) << sync_session.status().ToString();
  CompletionQueue done;
  std::map<uint64_t, StatusOr<RunReport>> by_seed;
  {
    auto async_session = builder.BuildAsync(std::make_shared<support::ThreadPool>(4));
    ASSERT_TRUE(async_session.ok()) << async_session.status().ToString();
    // Several concurrent submissions with distinct seeds, each tagged with
    // its seed; each must reproduce the synchronous run bit-for-bit (the
    // engine is deterministic).
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      api::RunRequest request;
      request.workload_seed = seed;
      async_session->Submit(request, done, seed);
    }
    for (int i = 0; i < 8; ++i) {
      CompletionEvent event = done.Wait();
      by_seed.emplace(event.token, std::move(event.report));
    }
  }
  ExpectDrained(done);
  ASSERT_EQ(by_seed.size(), 8u);
  for (const auto& [seed, actual] : by_seed) {
    api::RunRequest request;
    request.workload_seed = seed;
    auto expected = sync_session->Run(request);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->outcome, expected->outcome);
    EXPECT_DOUBLE_EQ(actual->total_time, expected->total_time);
    EXPECT_EQ(actual->synced_syscalls, expected->synced_syscalls);
  }
}

// ---------------------------------------------------------------------------
// One CompletionQueue over both backends, many concurrent submissions.
// ---------------------------------------------------------------------------

TEST(AsyncSessionTest, BothBackendsDrainFromOneQueue) {
  CompletionQueue done;  // declared first: it outlives every run pushing to it
  auto pool = std::make_shared<support::ThreadPool>(4);

  // Token encodes the expected outcome in its low digit.
  constexpr uint64_t kOk = 0, kDetected = 1, kDiverged = 2;
  size_t submitted = 0;
  {
    // Trace sessions: clean clones, an injected detection, an injected
    // divergence — all sharing the pool.
    NvxBuilder trace_builder;
    trace_builder.Benchmark(workload::Spec2006()[0]).Variants(3);
    auto clean = trace_builder.BuildAsync(pool);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    auto detect =
        NvxBuilder().Benchmark(workload::Spec2006()[0]).Variants(3)
            .InjectDetection(1, "__asan_report_store").BuildAsync(pool);
    ASSERT_TRUE(detect.ok()) << detect.status().ToString();
    auto diverge =
        NvxBuilder().Benchmark(workload::Spec2006()[0]).Variants(3)
            .InjectDivergence(2, "leaked-secret").BuildAsync(pool);
    ASSERT_TRUE(diverge.ok()) << diverge.status().ToString();

    // IR session on the same pool and queue: the buffer program with ASan
    // checks split across two variants; argument 4 overflows, 2 is benign.
    auto module = testutil::BuildBufferProgram();
    auto ir = NvxBuilder()
                  .Module(*module)
                  .Variants(2)
                  .DistributeChecks(san::SanitizerId::kASan)
                  .ProfilingWorkload({{"main", {0}}, {"main", {3}}})
                  .BuildAsync(pool);
    ASSERT_TRUE(ir.ok()) << ir.status().ToString();

    for (uint64_t i = 0; i < 6; ++i) {
      api::RunRequest reseed;
      reseed.workload_seed = 100 + i;
      clean->Submit(reseed, done, 10 * i + kOk);
      detect->Submit({}, done, 1000 + 10 * i + kDetected);
      diverge->Submit({}, done, 2000 + 10 * i + kDiverged);
      ir->Submit(api::Call("main", {4}), done, 3000 + 10 * i + kDetected);
      ir->Submit(api::Call("main", {2}), done, 4000 + 10 * i + kOk);
      submitted += 5;
    }
  }  // each session's destructor waits for its runs
  testutil::PushSentinel(done);  // so every event is queued ahead of it

  size_t ok_count = 0, detected_count = 0, diverged_count = 0;
  for (size_t i = 0; i < submitted; ++i) {
    CompletionEvent event = done.Wait();
    ASSERT_TRUE(event.report.ok()) << event.report.status().ToString();
    switch (event.token % 10) {
      case kOk:
        EXPECT_EQ(event.report->outcome, NvxOutcome::kOk) << "token " << event.token;
        ++ok_count;
        break;
      case kDetected:
        EXPECT_EQ(event.report->outcome, NvxOutcome::kDetected) << "token " << event.token;
        ++detected_count;
        break;
      case kDiverged:
        EXPECT_EQ(event.report->outcome, NvxOutcome::kDiverged) << "token " << event.token;
        ++diverged_count;
        break;
      default:
        FAIL() << "unexpected token " << event.token;
    }
  }
  EXPECT_EQ(ok_count, 12u);
  EXPECT_EQ(detected_count, 12u);
  EXPECT_EQ(diverged_count, 6u);
  // Exactly one event per submit: the sentinel is next.
  EXPECT_EQ(done.Wait().token, testutil::kSentinelToken);
}

// ---------------------------------------------------------------------------
// Observer sequencing under concurrent completions.
// ---------------------------------------------------------------------------

TEST(AsyncSessionTest, ObserverBlocksStaySequencedPerSession) {
  // 16 concurrent detection runs on one 3-variant session: the observer
  // stream must decompose into uninterleaved blocks of
  // finish0, finish1, finish2, incident. The session serializes delivery, so
  // the plain vector below needs no extra locking.
  std::vector<std::string> events;
  Observer observer;
  observer.on_variant_finish = [&events](size_t variant, double) {
    events.push_back("finish" + std::to_string(variant));
  };
  observer.on_incident = [&events](const RunReport& report) {
    EXPECT_EQ(report.outcome, NvxOutcome::kDetected);
    events.push_back("incident");
  };

  constexpr size_t kRuns = 16;
  CompletionQueue done;
  {
    auto session = NvxBuilder()
                       .Benchmark(workload::Spec2006()[0])
                       .Variants(3)
                       .InjectDetection(2, "__asan_report_load")
                       .SetObserver(observer)
                       .BuildAsync(std::make_shared<support::ThreadPool>(4));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < kRuns; ++i) {
      session->Submit({}, done, i);
    }
  }  // destructor waits for all 16 runs

  ASSERT_EQ(events.size(), kRuns * 4);
  for (size_t block = 0; block < kRuns; ++block) {
    EXPECT_EQ(events[block * 4 + 0], "finish0") << "block " << block;
    EXPECT_EQ(events[block * 4 + 1], "finish1") << "block " << block;
    EXPECT_EQ(events[block * 4 + 2], "finish2") << "block " << block;
    EXPECT_EQ(events[block * 4 + 3], "incident") << "block " << block;
  }
}

TEST(AsyncSessionTest, DestructorDrainsOutstandingRuns) {
  CompletionQueue done;  // declared first: it outlives every run pushing to it
  // The pool outlives the session, so its own drain on destruction cannot
  // stand in for the session's.
  auto pool = std::make_shared<support::ThreadPool>(2);
  {
    auto session = NvxBuilder()
                       .Benchmark(workload::Spec2006()[1])
                       .Variants(2)
                       .BuildAsync(pool);
    ASSERT_TRUE(session.ok());
    for (uint64_t i = 0; i < 6; ++i) {
      session->Submit({}, done, i);
    }
  }
  // Every run delivered before the destructor returned: the six events come
  // out ahead of a sentinel pushed the moment it did.
  testutil::PushSentinel(done);
  std::vector<bool> seen(6, false);
  for (int i = 0; i < 6; ++i) {
    const uint64_t token = done.Wait().token;
    ASSERT_LT(token, 6u) << "the sentinel came out after only " << i << " run(s)";
    EXPECT_FALSE(seen[token]) << "token " << token << " delivered twice";
    seen[token] = true;
  }
  EXPECT_EQ(done.Wait().token, testutil::kSentinelToken);
}

}  // namespace
}  // namespace bunshin
