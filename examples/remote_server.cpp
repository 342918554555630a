// Multi-host smoke client: drives a small fleet of nvx_executord processes
// through NvxBuilder::Remote() with a mixed batch of sessions, and verifies
// every verdict. tools/remote_smoke.sh runs this against two executors and
// kill -9s one of them mid-batch — the expected result is still a clean exit,
// because the dispatcher retries transport failures on the surviving
// executor and re-probes the restarted one after its cooldown.
//
//   $ ./build/examples/remote_server <port1> [port2 ...]
//
// The batch interleaves three session kinds, repeated round-robin:
//   - a clean SPEC benchmark (expect kOk),
//   - an exploited run whose distributed ASan check fires in variant 2
//     (expect kDetected, blamed on variant 2),
//   - a 4-variant server workload sharded 2 ways across the fleet
//     (expect kOk) — exercises multi-group fan-out per run.
// Runs are paced a few tens of milliseconds apart so the batch spans the
// harness's kill/restart window. Exits nonzero on the first wrong verdict.
// At the end it reads each executor's counters over the wire (kStats) and
// prints them, one "executor <host:port> stats: ..." line per executor (an
// executor that is down at that point is reported, not an error).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/api/nvx.h"
#include "src/net/remote.h"

using namespace bunshin;

namespace {

struct Scenario {
  const char* label;
  api::NvxOutcome expected;
  StatusOr<api::NvxSession> session;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <port1> [port2 ...]\n", argv[0]);
    return 2;
  }
  std::vector<net::Endpoint> fleet;
  for (int i = 1; i < argc; ++i) {
    const long port = std::atol(argv[i]);
    if (port <= 0 || port > 65535) {
      std::fprintf(stderr, "bad port: %s\n", argv[i]);
      return 2;
    }
    fleet.push_back(net::TcpEndpoint("127.0.0.1", static_cast<uint16_t>(port)));
  }

  // Tight enough that a kill is noticed quickly, patient enough that a
  // briefly absent executor (being restarted) doesn't fail the batch:
  // 4 attempts rotate to the survivor after the first refused dial.
  net::RemoteOptions options;
  options.timeout_ms = 5000;
  options.max_attempts = 4;
  options.backoff_ms = 20;
  options.unhealthy_cooldown_ms = 500;

  workload::ServerSpec server;
  server.name = "nginx";
  server.threads = 4;
  server.requests = 16;
  server.file_kb = 1;
  server.concurrency = 128;

  Scenario scenarios[] = {
      {"clean-spec", api::NvxOutcome::kOk,
       api::NvxBuilder()
           .Benchmark(workload::Spec2006()[0])
           .Variants(3)
           .Seed(4242)
           .Remote(fleet, options)
           .Build()},
      {"exploited-asan", api::NvxOutcome::kDetected,
       api::NvxBuilder()
           .Benchmark(workload::Spec2006()[1])
           .Variants(3)
           .DistributeChecks(san::SanitizerId::kASan)
           .InjectDetection(2, "__asan_report_store")
           .Seed(4243)
           .Remote(fleet, options)
           .Build()},
      {"sharded-server", api::NvxOutcome::kOk,
       api::NvxBuilder()
           .Server(server)
           .Variants(4)
           .Shards(2)
           .Seed(4244)
           .Remote(fleet, options)
           .Build()},
  };
  for (const Scenario& s : scenarios) {
    if (!s.session.ok()) {
      std::fprintf(stderr, "%s: session setup failed: %s\n", s.label,
                   s.session.status().ToString().c_str());
      return 1;
    }
  }

  constexpr int kRounds = 20;  // 3 scenarios x 20 rounds = 60 remote runs
  int completed = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (Scenario& s : scenarios) {
      auto report = s.session->Run();
      if (!report.ok()) {
        std::fprintf(stderr, "round %d %s: run failed: %s\n", round, s.label,
                     report.status().ToString().c_str());
        return 1;
      }
      if (report->outcome != s.expected) {
        std::fprintf(stderr, "round %d %s: outcome %s, expected %s\n", round, s.label,
                     api::NvxOutcomeName(report->outcome), api::NvxOutcomeName(s.expected));
        return 1;
      }
      if (s.expected == api::NvxOutcome::kDetected &&
          (!report->detection.has_value() || report->detection->variant != 2)) {
        std::fprintf(stderr, "round %d %s: detection misattributed\n", round, s.label);
        return 1;
      }
      ++completed;
      // Pace the batch so it spans the harness's kill/restart window.
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    if (round % 5 == 0) {
      std::printf("round %d/%d: %d runs verified\n", round, kRounds, completed);
      std::fflush(stdout);
    }
  }

  std::printf("remote_server: all %d runs across %zu executor(s) verified\n", completed,
              fleet.size());

  for (const net::Endpoint& endpoint : fleet) {
    auto stats = net::FetchExecutorStats(endpoint, options.timeout_ms);
    if (!stats.ok()) {
      std::printf("executor %s stats: unavailable (%s)\n", endpoint.name.c_str(),
                  stats.status().ToString().c_str());
      continue;
    }
    std::printf(
        "executor %s stats: requests=%llu plan_cache_hits=%llu plan_unknown_replies=%llu "
        "connections_accepted=%llu connections_refused=%llu deadline_closes=%llu\n",
        endpoint.name.c_str(), static_cast<unsigned long long>(stats->requests),
        static_cast<unsigned long long>(stats->plan_cache_hits),
        static_cast<unsigned long long>(stats->plan_unknown_replies),
        static_cast<unsigned long long>(stats->connections_accepted),
        static_cast<unsigned long long>(stats->connections_refused),
        static_cast<unsigned long long>(stats->deadline_closes));
  }
  return 0;
}
