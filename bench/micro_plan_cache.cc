// Plan-cache amortization: sessions/sec cold (re-plan every Build) vs warm
// (one PlanCache serving every Build), single- and multi-threaded builders.
//
// The paper's deployment model plans once per protected program and serves
// many executions; this bench measures what that amortization is worth in
// our reproduction. "build-only" isolates the planning half that the cache
// elides (profile synthesis + check partitioning + spec construction) — the
// gate is >= 2x warm/cold sessions/sec on both build-only rows, and every
// row's planning runs must match the cache's own hit/miss counters; the
// bench exits 1 when either fails. "build+run" shows the end-to-end gain
// when every session also executes once; the multi-threaded section stresses
// the single-flight path (many builders, one cache, one planning run).
//
//   $ ./build/bench/micro_plan_cache
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/nvx.h"
#include "src/api/plan_cache.h"

using namespace bunshin;

namespace {

api::NvxBuilder MakeBuilder(const workload::BenchmarkSpec& bench,
                            std::shared_ptr<api::PlanCache> cache) {
  api::NvxBuilder builder;
  builder.Benchmark(bench)
      .Variants(8)
      .DistributeChecks(san::SanitizerId::kASan)
      .Lockstep(nxe::LockstepMode::kSelective)
      .Seed(2027);
  if (cache != nullptr) {
    builder.WithPlanCache(std::move(cache));
  }
  return builder;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Builds (and optionally runs) `sessions` sessions across `threads` threads,
// each from a fresh builder — the server-fleet shape where every request
// handler configures its own session. Returns wall seconds, or -1 on error.
double TimeSessions(const workload::BenchmarkSpec& bench, std::shared_ptr<api::PlanCache> cache,
                    size_t sessions, size_t threads, bool run_each) {
  std::atomic<bool> failed{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const size_t per_thread = sessions / threads;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&bench, &cache, &failed, per_thread, run_each] {
      for (size_t i = 0; i < per_thread; ++i) {
        auto session = MakeBuilder(bench, cache).Build();
        if (!session.ok()) {
          failed = true;
          return;
        }
        if (run_each) {
          auto report = session->Run();
          if (!report.ok() || report->outcome != api::NvxOutcome::kOk) {
            failed = true;
            return;
          }
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  if (failed.load()) {
    std::fprintf(stderr, "session build/run failed\n");
    return -1.0;
  }
  return Seconds(start);
}

// One shared cache serves every row (the fleet shape); each row snapshots
// the cumulative counters before and after its warm phase and diffs, so the
// printed hit/miss/coalesced are that phase's own, not the fleet lifetime's.
// A row fails below `min_speedup` (0: not gated).
int Row(const char* label, const workload::BenchmarkSpec& bench, size_t sessions,
        size_t threads, bool run_each, const std::shared_ptr<api::PlanCache>& cache,
        uint64_t expected_misses, double min_speedup) {
  const double cold = TimeSessions(bench, nullptr, sessions, threads, run_each);
  const api::PlanCacheStats before = cache->stats();
  const double warm = TimeSessions(bench, cache, sessions, threads, run_each);
  if (cold < 0.0 || warm < 0.0) {
    return 1;
  }
  const api::PlanCacheStats after = cache->stats();
  const uint64_t phase_hits = after.hits - before.hits;
  const uint64_t phase_misses = after.misses - before.misses;
  const uint64_t phase_coalesced = after.coalesced - before.coalesced;
  const double sessions_d = static_cast<double>(sessions);
  std::printf("%-22s %10.1f %12.1f %9.2fx   (cache: %llu hit / %llu miss / %llu coalesced)\n",
              label, sessions_d / cold, sessions_d / warm, cold / warm,
              static_cast<unsigned long long>(phase_hits),
              static_cast<unsigned long long>(phase_misses),
              static_cast<unsigned long long>(phase_coalesced));
  if (phase_misses != expected_misses) {
    std::fprintf(stderr, "expected %llu planning run(s) this phase, saw %llu\n",
                 static_cast<unsigned long long>(expected_misses),
                 static_cast<unsigned long long>(phase_misses));
    return 1;
  }
  if (cold / warm < min_speedup) {
    std::fprintf(stderr, "%s: warm/cold %.2fx is below the %.1fx gate\n", label, cold / warm,
                 min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  bench::PrintHeader("Plan cache (sessions/sec cold vs warm, 8-variant ASan check distribution)",
                     "session batching (ROADMAP); no paper figure");

  const workload::BenchmarkSpec& bench = workload::Spec2006()[0];  // perlbench
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("benchmark %s, host cores: %u\n\n", bench.name.c_str(), cores);
  std::printf("%-22s %10s %12s %9s\n", "configuration", "cold/sec", "warm/sec", "speedup");

  int rc = 0;
  auto cache = std::make_shared<api::PlanCache>(16);
  // Build-only: the planning cost the cache amortizes (the >= 2x gate). The
  // first phase plans once; every later phase must be all hits.
  constexpr double kBuildOnlyGate = 2.0;
  rc |= Row("build-only", bench, 192, 1, /*run_each=*/false, cache, /*expected_misses=*/1,
            kBuildOnlyGate);
  // Build+run: one execution per session diluted by engine time.
  rc |= Row("build+run", bench, 64, 1, /*run_each=*/true, cache, /*expected_misses=*/0,
            /*min_speedup=*/0.0);
  // Multi-threaded builders sharing one cache (single-flight coalescing).
  rc |= Row("build-only x4 threads", bench, 192, 4, /*run_each=*/false, cache,
            /*expected_misses=*/0, kBuildOnlyGate);
  rc |= Row("build+run  x4 threads", bench, 64, 4, /*run_each=*/true, cache,
            /*expected_misses=*/0, /*min_speedup=*/0.0);

  std::printf("\nwarm builds resolve the plan by cache key (one miss total, in the first\n"
              "phase); cold builds re-run profile synthesis + check partitioning per\n"
              "session. Per-row counters are snapshot diffs, not cache lifetime totals.\n");
  return rc;
}
