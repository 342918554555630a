// Session batching: a server fleet that plans each protected configuration
// once and serves every request from the cached plan.
//
// One PlanCache backs three kinds of traffic sharing one worker pool and one
// CompletionQueue:
//   * steady-state nginx-like sessions (4 clones);
//   * batch sessions of an ASan check-distributed benchmark;
//   * exploit attempts against that same benchmark configuration — built
//     with InjectDetection, which overlays the attack on the *cached base
//     plan* instead of planning (or storing) anything new.
// Per-request handlers each configure a fresh NvxBuilder (the realistic
// shape: no shared builder state), yet the cache keeps total planning at one
// run per distinct configuration: 24 sessions, 2 plans.
//
//   $ ./build/examples/batched_server
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/api/plan_cache.h"
#include "src/support/thread_pool.h"

using namespace bunshin;

int main() {
  auto cache = std::make_shared<api::PlanCache>(/*capacity=*/16);
  auto pool = std::make_shared<support::ThreadPool>(4);
  // Declared before the sessions so it outlives their in-flight submits
  // (docs/concurrency.md, "Queue lifetime").
  api::CompletionQueue verdicts;

  // The build-time observer hook: a dashboard would watch plan reuse here.
  size_t hook_hits = 0, hook_misses = 0;
  api::Observer observer;
  observer.on_plan_cache = [&hook_hits, &hook_misses](const std::string&, bool hit) {
    (hit ? hook_hits : hook_misses)++;
  };

  workload::ServerSpec server;
  server.name = "nginx";
  server.threads = 4;
  server.requests = 32;
  server.file_kb = 1;
  server.concurrency = 256;

  constexpr uint64_t kClean = 0, kExploit = 1;
  constexpr uint64_t kRounds = 8;
  size_t submitted = 0;
  std::map<std::string, size_t> tally;
  // Counters are cumulative over the cache's lifetime; snapshot them at the
  // cold/steady phase boundary and diff, so each phase's hit rate is its
  // own — not diluted by the other phase's traffic.
  api::PlanCacheStats cold_stats;

  // Keep every session alive until its runs drain.
  std::vector<api::AsyncNvxSession> sessions;
  sessions.reserve(3 * kRounds);

  for (uint64_t round = 0; round < kRounds; ++round) {
    // Steady-state traffic: fresh builder per request, plan served by key.
    auto traffic = api::NvxBuilder()
                       .Server(server)
                       .Variants(4)
                       .Seed(2027)
                       .WithPlanCache(cache)
                       .SetObserver(observer)
                       .BuildAsync(pool);
    // Batch benchmark traffic: a second distinct configuration.
    auto batch = api::NvxBuilder()
                     .Benchmark(workload::Spec2006()[0])
                     .Variants(4)
                     .DistributeChecks(san::SanitizerId::kASan)
                     .WithPlanCache(cache)
                     .SetObserver(observer)
                     .BuildAsync(pool);
    // The exploit attempt: same configuration as `batch` plus an attack
    // splice — a cache HIT on the batch entry, overlaid per session.
    auto exploited = api::NvxBuilder()
                         .Benchmark(workload::Spec2006()[0])
                         .Variants(4)
                         .DistributeChecks(san::SanitizerId::kASan)
                         .InjectDetection(2, "__asan_report_store")
                         .WithPlanCache(cache)
                         .SetObserver(observer)
                         .BuildAsync(pool);
    if (!traffic.ok() || !batch.ok() || !exploited.ok()) {
      std::fprintf(stderr, "session setup failed in round %llu\n",
                   static_cast<unsigned long long>(round));
      return 1;
    }

    api::RunRequest request;
    request.workload_seed = 7000 + round;
    traffic->Submit(request, verdicts, (round << 8) | kClean);
    batch->Submit(request, verdicts, ((round + 100) << 8) | kClean);
    exploited->Submit({}, verdicts, ((round + 200) << 8) | kExploit);
    submitted += 3;
    sessions.push_back(std::move(*traffic));
    sessions.push_back(std::move(*batch));
    sessions.push_back(std::move(*exploited));
    if (round == 0) {
      cold_stats = cache->stats();  // end of the cold phase: all planning done
    }
  }

  std::printf("submitted %zu sessions from %zu builder configurations through one plan cache\n\n",
              submitted, static_cast<size_t>(3));

  for (size_t i = 0; i < submitted; ++i) {
    api::CompletionEvent event = verdicts.Wait();
    if (!event.report.ok()) {
      std::fprintf(stderr, "run %llu failed: %s\n",
                   static_cast<unsigned long long>(event.token),
                   event.report.status().ToString().c_str());
      return 1;
    }
    const api::RunReport& report = *event.report;
    const char* expected = (event.token & 0xFF) == kClean ? "ok" : "detected";
    const char* got = api::NvxOutcomeName(report.outcome);
    tally[got]++;
    if (std::string(expected) != got) {
      std::fprintf(stderr, "token %llu: expected %s, got %s\n",
                   static_cast<unsigned long long>(event.token), expected, got);
      return 1;
    }
    if (report.outcome == api::NvxOutcome::kDetected &&
        report.detection->variant != 2) {
      std::fprintf(stderr, "detection misattributed: variant %zu\n", report.detection->variant);
      return 1;
    }
  }

  const api::PlanCacheStats stats = cache->stats();
  const uint64_t steady_hits = stats.hits - cold_stats.hits;
  const uint64_t steady_misses = stats.misses - cold_stats.misses;
  std::printf("verdicts: %zu ok, %zu detected — all as expected\n", tally["ok"],
              tally["detected"]);
  std::printf("plan cache, cold phase (round 0):   %llu hits, %llu misses\n",
              static_cast<unsigned long long>(cold_stats.hits),
              static_cast<unsigned long long>(cold_stats.misses));
  std::printf("plan cache, steady phase (rounds 1+): %llu hits, %llu misses\n",
              static_cast<unsigned long long>(steady_hits),
              static_cast<unsigned long long>(steady_misses));
  std::printf("plan cache lifetime: %llu hits, %llu misses, %zu entries "
              "(observer hook saw %zu hits / %zu misses)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.entries, hook_hits,
              hook_misses);

  // The whole fleet must have planned exactly twice — the server config and
  // the benchmark config (exploit sessions overlay the benchmark entry) —
  // and both in the cold phase: steady-state builds must be a 100% hit rate.
  if (cold_stats.misses != 2 || stats.misses != 2 || stats.entries != 2 || hook_misses != 2) {
    std::fprintf(stderr, "expected 2 planning runs, all in round 0\n");
    return 1;
  }
  if (steady_misses != 0 || steady_hits == 0) {
    std::fprintf(stderr, "steady phase expected a 100%% hit rate\n");
    return 1;
  }
  return 0;
}
