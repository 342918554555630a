// Async monitoring: one worker pool protecting many sessions at once.
//
// A deployment like the paper's server scenario cannot block a request
// thread for a whole synchronization run. Here a front-end submits dozens of
// concurrent runs — steady-state traffic, an exploit that trips a
// distributed ASan check, and a compromised variant trying to exfiltrate a
// different payload — into one ThreadPool, and a single dispatcher drains
// every verdict from one CompletionQueue in completion order.
//
//   $ ./build/examples/async_server
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
  // Declared before the sessions so it outlives their in-flight submits
  // (docs/concurrency.md, "Queue lifetime").
  api::CompletionQueue verdicts;

  // Steady-state traffic: three clones of an nginx-like server, strict
  // lockstep (the front door of the paper's motivating deployment).
  workload::ServerSpec server;
  server.name = "nginx";
  server.threads = 4;
  server.requests = 32;
  server.file_kb = 1;
  server.concurrency = 256;
  auto traffic = api::NvxBuilder()
                     .Server(server)
                     .Variants(3)
                     .Lockstep(nxe::LockstepMode::kStrict)
                     .Seed(2026)
                     .BuildAsync(pool);

  // An exploit reaches the variant carrying the vulnerable function's ASan
  // checks: the distributed check fires mid-run.
  auto exploited = api::NvxBuilder()
                       .Benchmark(workload::Spec2006()[0])
                       .Variants(3)
                       .DistributeChecks(san::SanitizerId::kASan)
                       .InjectDetection(1, "__asan_report_store")
                       .BuildAsync(pool);

  // A compromised variant emits a different payload through an observable
  // syscall: the monitor flags the divergence before anything leaks.
  auto compromised = api::NvxBuilder()
                         .Benchmark(workload::Spec2006()[0])
                         .Variants(3)
                         .InjectDivergence(2, "exfiltrated-secret")
                         .BuildAsync(pool);

  if (!traffic.ok() || !exploited.ok() || !compromised.ok()) {
    std::fprintf(stderr, "session setup failed\n");
    return 1;
  }

  // Tokens name the scenario so the dispatcher can tell verdicts apart.
  constexpr uint64_t kClean = 0, kExploit = 1, kCompromise = 2;
  size_t submitted = 0;
  for (uint64_t i = 0; i < 12; ++i) {
    api::RunRequest request;
    request.workload_seed = 3000 + i;
    traffic->Submit(request, verdicts, (i << 8) | kClean);
    ++submitted;
  }
  for (uint64_t i = 0; i < 12; ++i) {
    api::RunRequest request;
    request.workload_seed = 4000 + i;
    ((i % 2 == 0) ? *exploited : *compromised)
        .Submit(request, verdicts, (i << 8) | (i % 2 == 0 ? kExploit : kCompromise));
    ++submitted;
  }
  std::printf("submitted %zu concurrent sessions to a %zu-worker pool\n\n", submitted,
              pool->n_workers());

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
    const uint64_t scenario = event.token & 0xFF;
    const char* expected = scenario == kClean        ? "ok"
                           : scenario == kExploit    ? "detected"
                                                     : "diverged";
    const char* got = api::NvxOutcomeName(report.outcome);
    tally[got]++;
    if (std::string(expected) != got) {
      std::fprintf(stderr, "scenario %llu: expected %s, got %s\n",
                   static_cast<unsigned long long>(scenario), expected, got);
      return 1;
    }
    if (report.outcome == api::NvxOutcome::kDetected) {
      std::printf("  [%2zu] token %5llu BLOCKED: variant %zu raised %s\n", i,
                  static_cast<unsigned long long>(event.token),
                  report.detection->variant, report.detection->detector.c_str());
    } else if (report.outcome == api::NvxOutcome::kDiverged) {
      std::printf("  [%2zu] token %5llu DIVERGED: variant %zu, monitor aborted all\n", i,
                  static_cast<unsigned long long>(event.token), report.divergence->variant);
    } else {
      auto overhead = report.Overhead();
      std::printf("  [%2zu] token %5llu ok (overhead %5.1f%%)\n", i,
                  static_cast<unsigned long long>(event.token),
                  (overhead.ok() ? *overhead : 0.0) * 100.0);
    }
  }

  std::printf("\nverdicts: %zu ok, %zu detected, %zu diverged — all as expected\n",
              tally["ok"], tally["detected"], tally["diverged"]);
  return 0;
}
