// Stress and unit coverage for the session layer's concurrency substrate:
// CompletionQueue FIFO-per-producer and exactly-once delivery under 16
// producers x 4 consumers (the TSan acceptance workload), the producer-
// registration assert, the plan cache's counters and weight bound under
// concurrent lookups, and the working memory every session's runs share.
// This suite runs under ThreadSanitizer and AddressSanitizer in CI alongside
// the async/shard suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/api/plan_cache.h"
#include "tests/heap_counter.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using api::CompletionEvent;
using api::CompletionQueue;
using api::PlanCache;
using api::PlanCacheStats;
using api::RunReport;
using testutil::ExpectDrained;

// ---------------------------------------------------------------------------
// CompletionQueue stress: FIFO per producer, exactly-once delivery.
// ---------------------------------------------------------------------------

constexpr size_t kProducers = 16;
constexpr size_t kConsumers = 4;
constexpr size_t kEventsPerProducer = 10'000;
constexpr size_t kTotalEvents = kProducers * kEventsPerProducer;

uint64_t Encode(size_t producer, size_t seq) {
  return (static_cast<uint64_t>(producer) << 32) | static_cast<uint64_t>(seq);
}

// Pushes kEventsPerProducer events tagged Encode(p, seq) from each of
// kProducers threads.
std::vector<std::thread> StartProducers(CompletionQueue& queue) {
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      queue.AddProducer();
      for (size_t s = 0; s < kEventsPerProducer; ++s) {
        queue.Push(CompletionEvent{Encode(p, s)});
      }
      queue.RemoveProducer();
    });
  }
  return producers;
}

// Serialized pops observe strict FIFO per producer: with pops externally
// ordered (one mutex across all consumers), every producer's events must
// come out in exactly push order.
TEST(CompletionQueueStressTest, FifoPerProducerUnderSerializedPops) {
  CompletionQueue queue;
  std::vector<std::thread> producers = StartProducers(queue);

  std::mutex pop_mu;  // serializes pops, making global FIFO-per-producer observable
  std::vector<uint64_t> next_seq(kProducers, 0);
  std::atomic<size_t> popped{0};
  std::atomic<bool> order_ok{true};
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::lock_guard<std::mutex> lock(pop_mu);
        if (popped.load(std::memory_order_relaxed) == kTotalEvents) {
          return;
        }
        // Producers push without pop_mu, so a pop that waits here for the
        // next event still gets it.
        const uint64_t item = queue.Wait().token;
        popped.fetch_add(1, std::memory_order_relaxed);
        const size_t producer = item >> 32;
        const uint64_t seq = item & 0xffffffffu;
        if (seq != next_seq[producer]) {
          order_ok.store(false, std::memory_order_relaxed);
        }
        next_seq[producer] = seq + 1;
      }
    });
  }

  for (auto& thread : producers) {
    thread.join();
  }
  for (auto& thread : consumers) {
    thread.join();
  }
  EXPECT_TRUE(order_ok.load()) << "a producer's events were reordered";
  EXPECT_EQ(popped.load(), kTotalEvents);
  for (size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kEventsPerProducer) << "producer " << p;
  }
  ExpectDrained(queue);
}

// Free-running consumers (blocking Wait, no external order) still see each
// producer monotonically — a consumer's sequential pops can never observe
// producer P's event k after k+1 — and every event exactly once.
TEST(CompletionQueueStressTest, ExactlyOnceDeliveryUnderConcurrentConsumers) {
  CompletionQueue queue;
  std::vector<std::thread> producers = StartProducers(queue);

  // Exactly kTotalEvents blocking pops are handed out across consumers, so
  // every Wait() has an item to wait for and the queue drains completely.
  std::atomic<size_t> tickets{0};
  std::vector<std::vector<uint64_t>> seen(kConsumers);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (tickets.fetch_add(1, std::memory_order_relaxed) < kTotalEvents) {
        seen[c].push_back(queue.Wait().token);
      }
    });
  }

  for (auto& thread : producers) {
    thread.join();
  }
  for (auto& thread : consumers) {
    thread.join();
  }

  std::set<uint64_t> all;
  for (size_t c = 0; c < kConsumers; ++c) {
    std::vector<uint64_t> last(kProducers, 0);
    std::vector<bool> started(kProducers, false);
    for (uint64_t item : seen[c]) {
      const size_t producer = item >> 32;
      const uint64_t seq = item & 0xffffffffu;
      if (started[producer]) {
        EXPECT_GT(seq, last[producer]) << "consumer " << c << " saw producer "
                                       << producer << " out of order";
      }
      started[producer] = true;
      last[producer] = seq;
      all.insert(item);
    }
  }
  EXPECT_EQ(all.size(), kTotalEvents) << "events lost or duplicated";
  ExpectDrained(queue);
}

// Report payloads (not just tokens) moving through the queue.
TEST(CompletionQueueTest, ShardedLanesCarryReportsFifoPerProducer) {
  CompletionQueue queue;
  constexpr size_t kThreads = 8;
  constexpr size_t kEach = 500;

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kThreads; ++p) {
    producers.emplace_back([&queue, p] {
      queue.AddProducer();
      for (size_t s = 0; s < kEach; ++s) {
        RunReport report;
        report.synced_syscalls = s;  // payload round-trip check
        queue.Push(api::CompletionEvent{Encode(p, s), StatusOr<RunReport>(std::move(report))});
      }
      queue.RemoveProducer();
    });
  }
  for (auto& thread : producers) {
    thread.join();
  }

  std::vector<uint64_t> next_seq(kThreads, 0);
  for (size_t i = 0; i < kThreads * kEach; ++i) {
    api::CompletionEvent event = queue.Wait();
    const size_t producer = event.token >> 32;
    const uint64_t seq = event.token & 0xffffffffu;
    EXPECT_EQ(seq, next_seq[producer]) << "producer " << producer;
    next_seq[producer] = seq + 1;
    ASSERT_TRUE(event.report.ok());
    EXPECT_EQ(event.report->synced_syscalls, seq);
  }
  ExpectDrained(queue);
  EXPECT_EQ(queue.registered_producers(), 0u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(CompletionQueueDeathTest, DestructionWithRegisteredProducersAsserts) {
  EXPECT_DEATH(
      {
        CompletionQueue queue;
        queue.AddProducer();  // simulated in-flight submit, never delivered
      },
      "registered producers");
}
#endif

// ---------------------------------------------------------------------------
// Plan cache counters.
// ---------------------------------------------------------------------------

TEST(SegmentedCacheTest, CountersStayCoherentUnderConcurrentLookups) {
  PlanCache cache(/*capacity=*/32);
  constexpr size_t kThreads = 8;
  constexpr size_t kLookups = 2'000;
  constexpr size_t kKeys = 16;

  std::atomic<bool> stop_polling{false};
  // Telemetry poller: stats() must be safe against the lookup traffic.
  std::thread poller([&] {
    while (!stop_polling.load()) {
      const PlanCacheStats stats = cache.stats();
      EXPECT_LE(stats.entries, 32u);
    }
  });

  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (size_t i = 0; i < kLookups; ++i) {
        const std::string key = "plan" + std::to_string((i + t) % kKeys);
        auto plan = cache.GetOrPlan(key, [] { return api::VariantPlan(); });
        EXPECT_TRUE(plan.ok());
      }
    });
  }
  for (auto& thread : workers) {
    thread.join();
  }
  stop_polling.store(true);
  poller.join();

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookups);
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.evictions, 0u);
  // Single-flight: each key planned at most once per concurrent burst; with
  // 16 keys over 16k lookups, misses stay tiny.
  EXPECT_LE(stats.misses, kKeys * kThreads);
}

TEST(SegmentedCacheTest, HeldWeightStaysWithinCapacityUnderMixedWeights) {
  // Weights 1-4096 under a capacity a few entries fill: fills evict, and
  // about a quarter of the keys weigh more than the whole capacity, so their
  // plans are served to the planner and its waiters but never kept.
  constexpr size_t kCapacity = 3'000;
  PlanCache cache(kCapacity);
  constexpr size_t kThreads = 8;
  constexpr size_t kLookups = 2'000;
  constexpr size_t kKeys = 64;
  const auto weight_of = [](size_t key) { return 1 + (key * 2'654'435'761u) % 4'096; };

  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    while (!stop_polling.load()) {
      const PlanCacheStats stats = cache.stats();
      EXPECT_LE(stats.weight, kCapacity);
      EXPECT_LE(stats.entries, stats.weight);
    }
  });

  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, weight_of, t] {
      for (size_t i = 0; i < kLookups; ++i) {
        const size_t key = (i * 7 + t) % kKeys;
        auto plan = cache.GetOrPlan("plan" + std::to_string(key),
                                    [] { return api::VariantPlan(); }, nullptr, weight_of(key));
        EXPECT_TRUE(plan.ok());
      }
    });
  }
  for (auto& thread : workers) {
    thread.join();
  }
  stop_polling.store(true);
  poller.join();

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookups);
  EXPECT_LE(stats.weight, kCapacity);
  EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Working memory shared by every session's runs.
// ---------------------------------------------------------------------------

// Many fresh_local-shaped sessions running at once on a few threads share
// one freelist of working memory: once each has run, the heap holds their
// replay state and bookkeeping plus at most one block of working memory
// per thread, not one per session. Every run reports what a fresh session
// running without a workspace reports, bit for bit.
TEST(RunMemoryTest, ConcurrentSessionsShareOneFreelist) {
  constexpr size_t kSessions = 32;
  constexpr size_t kThreads = 4;
  // The scratch object and its slot on its backend's freelist.
  constexpr int64_t kBookkeepingBytes = 512;
  const auto seed_of = [](size_t i) -> uint64_t { return 0xC0C0'0000 + i; };

  std::vector<api::VariantPlan> plans;
  std::vector<RunReport> fresh;
  std::vector<api::NvxSession> warmups;
  std::vector<api::NvxSession> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    api::NvxBuilder builder = testutil::FreshLocalShaped(i);
    auto plan = builder.PlanVariants();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(*plan));
    auto warmup = builder.Build();
    auto session = builder.Build();
    auto unpooled = builder.PooledEngines(false).Build();
    ASSERT_TRUE(warmup.ok() && session.ok() && unpooled.ok());
    warmups.push_back(std::move(*warmup));
    sessions.push_back(std::move(*session));
    api::RunRequest request;
    request.workload_seed = seed_of(i);
    auto report = unpooled->Run(request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    fresh.push_back(std::move(*report));
  }

  // Runs every session of `group` once at its seed, kThreads at a time.
  const auto run_all = [&](const std::vector<api::NvxSession>& group) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < kSessions; i = next++) {
          api::RunRequest request;
          request.workload_seed = seed_of(i);
          auto report = group[i].Run(request);
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          EXPECT_EQ(report->outcome, fresh[i].outcome) << "session " << i;
          EXPECT_EQ(report->total_time, fresh[i].total_time) << "session " << i;
          EXPECT_EQ(report->baseline_time, fresh[i].baseline_time) << "session " << i;
          EXPECT_TRUE(report->variant_finish_time == fresh[i].variant_finish_time)
              << "session " << i;
          EXPECT_EQ(report->synced_syscalls, fresh[i].synced_syscalls) << "session " << i;
          api::RecycleReport(std::move(*report));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  };
  // The throwaway twins fill the process-wide state first: noise tapes and
  // the report and working-memory freelists, kThreads deep.
  run_all(warmups);

  const int64_t before = testutil::HeapHeld();
  run_all(sessions);
  const int64_t held = testutil::HeapHeld() - before;

  int64_t replay = 0;
  int64_t largest_working = 0;
  for (size_t i = 0; i < kSessions; ++i) {
    const int64_t state = testutil::ReplayStateBytes(plans[i], seed_of(i));
    const int64_t working = testutil::WorkingMemoryBytes(plans[i], seed_of(i));
    ASSERT_GT(state, 0);
    ASSERT_GT(working, 0);
    replay += state;
    largest_working = std::max(largest_working, working);
  }
  EXPECT_LE(held, replay + static_cast<int64_t>(kSessions) * kBookkeepingBytes +
                      static_cast<int64_t>(kThreads) * largest_working)
      << "per session: " << held / static_cast<int64_t>(kSessions) << " bytes held, "
      << replay / static_cast<int64_t>(kSessions) << " of them replay state; the largest "
      << "run's working memory is " << largest_working << " bytes";
}

}  // namespace
}  // namespace bunshin
