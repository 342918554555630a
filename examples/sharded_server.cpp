// Sharded monitoring: sessions whose variants are split into engine shard
// groups, all draining into one CompletionQueue.
//
// Three 2-shard sessions share one worker pool, and each run's shard groups
// execute one after another on the worker running it: steady-state server
// traffic (4 clones, so each shard synchronizes the leader plus followers), a
// batch benchmark session, and an exploited session whose distributed ASan check
// fires in a follower that runs on shard 1 — the merged report still blames
// the right variant, because RunReport::Merge remaps shard-local incident
// attribution back to session slots. One dispatcher drains every verdict
// from a single CompletionQueue in completion order.
//
//   $ ./build/examples/sharded_server
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/support/thread_pool.h"

using namespace bunshin;

int main() {
  auto pool = std::make_shared<support::ThreadPool>(4);
  // Declared before the sessions: the queue must outlive everything that
  // submits into it (sessions drain on destruction, so declaration order is
  // the whole lifetime story — docs/concurrency.md, "Queue lifetime").
  api::CompletionQueue verdicts;

  // Steady-state traffic: four clones of an nginx-like server, split into
  // two shards of leader + followers.
  workload::ServerSpec server;
  server.name = "nginx";
  server.threads = 4;
  server.requests = 32;
  server.file_kb = 1;
  server.concurrency = 256;
  auto traffic = api::NvxBuilder()
                     .Server(server)
                     .Variants(4)
                     .Shards(2)
                     .Seed(2027)
                     .BuildAsync(pool);

  // A batch workload riding the same pool and queue.
  auto batch = api::NvxBuilder()
                   .Benchmark(workload::Spec2006()[1])
                   .Variants(4)
                   .Shards(2)
                   .Lockstep(nxe::LockstepMode::kSelective)
                   .BuildAsync(pool);

  // The exploit scenario: variant 2's slice of the distributed ASan checks
  // fires mid-run. Variant 2 executes on shard 1; the merged verdict still
  // points at global variant 2.
  auto exploited = api::NvxBuilder()
                       .Benchmark(workload::Spec2006()[0])
                       .Variants(4)
                       .Shards(2)
                       .DistributeChecks(san::SanitizerId::kASan)
                       .InjectDetection(2, "__asan_report_store")
                       .BuildAsync(pool);

  if (!traffic.ok() || !batch.ok() || !exploited.ok()) {
    std::fprintf(stderr, "session setup failed\n");
    return 1;
  }

  constexpr uint64_t kClean = 0, kExploit = 1;
  size_t submitted = 0;
  for (uint64_t i = 0; i < 6; ++i) {
    api::RunRequest request;
    request.workload_seed = 5000 + i;
    traffic->Submit(request, &verdicts, (i << 8) | kClean);
    batch->Submit(request, &verdicts, ((i + 100) << 8) | kClean);
    exploited->Submit({}, &verdicts, ((i + 200) << 8) | kExploit);
    submitted += 3;
  }
  std::printf("submitted %zu sharded sessions (3 sessions x 2 shards each) to a "
              "%zu-worker pool\n\n",
              submitted, pool->n_workers());

  std::map<std::string, size_t> tally;
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
    if (report.outcome == api::NvxOutcome::kDetected) {
      if (report.detection->variant != 2) {
        std::fprintf(stderr, "merge misattributed the detection: variant %zu\n",
                     report.detection->variant);
        return 1;
      }
      std::printf("  [%2zu] token %5llu BLOCKED: variant %zu raised %s (attributed across "
                  "shards)\n",
                  i, static_cast<unsigned long long>(event.token), report.detection->variant,
                  report.detection->detector.c_str());
    } else {
      auto overhead = report.Overhead();
      std::printf("  [%2zu] token %5llu ok (merged overhead %5.1f%%)\n", i,
                  static_cast<unsigned long long>(event.token),
                  (overhead.ok() ? *overhead : 0.0) * 100.0);
    }
  }

  std::printf("\nverdicts: %zu ok, %zu detected — all as expected\n", tally["ok"],
              tally["detected"]);
  return 0;
}
