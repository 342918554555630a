// Async session throughput: sessions/sec vs pool worker count.
//
// Measures how many full synchronization runs per second one AsyncNvxSession
// sustains as the worker pool grows — the scaling story behind the async
// backend (every run is an independent engine simulation, so throughput
// should rise with workers until the host runs out of cores).
//
//   $ ./build/bench/async_throughput
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/support/thread_pool.h"

using namespace bunshin;

namespace {

// Wall-clock seconds to run `runs` sessions on `workers` pool threads.
double TimeRuns(const workload::ServerSpec& server, size_t workers, size_t runs) {
  // Declared before the session: the session's destructor drains in-flight
  // runs, which deliver into this queue, so it must be destroyed last.
  api::CompletionQueue done;
  auto pool = std::make_shared<support::ThreadPool>(workers);
  auto session = api::NvxBuilder().Server(server).Variants(4).BuildAsync(pool);
  if (!session.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", session.status().ToString().c_str());
    return -1.0;
  }
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < runs; ++i) {
    api::RunRequest request;
    request.workload_seed = 1 + i;  // distinct workloads, like distinct requests
    session->Submit(request, done, i);
  }
  for (size_t i = 0; i < runs; ++i) {
    api::CompletionEvent event = done.Wait();
    if (!event.report.ok() || event.report->outcome != api::NvxOutcome::kOk) {
      std::fprintf(stderr, "run %llu failed\n", static_cast<unsigned long long>(event.token));
      return -1.0;
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main() {
  bench::PrintHeader("Async backend throughput",
                     "async session layer (ROADMAP: async backend); no paper figure");

  // A 4-thread server processing 512 requests: a few ms of simulation per
  // run, so the pool (not submission overhead) dominates.
  workload::ServerSpec server;
  server.name = "nginx";
  server.threads = 4;
  server.requests = 512;
  server.concurrency = 256;
  constexpr size_t kRuns = 64;

  std::printf("host cores: %u (speedup saturates there — a 1-core host shows ~1.0x)\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-10s %12s %14s %10s\n", "workers", "wall (s)", "sessions/sec", "speedup");
  double base_rate = 0.0;
  for (size_t workers : {1, 2, 4, 8}) {
    const double seconds = TimeRuns(server, workers, kRuns);
    if (seconds < 0.0) {
      return 1;
    }
    const double rate = static_cast<double>(kRuns) / seconds;
    if (base_rate == 0.0) {
      base_rate = rate;
    }
    std::printf("%-10zu %12.3f %14.1f %9.2fx\n", workers, seconds, rate, rate / base_rate);
  }
  std::printf("\n%zu runs per row; speedup is vs the single-worker pool.\n", kRuns);
  return 0;
}
