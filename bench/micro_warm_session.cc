// Warm-run engine path: cold (a fresh backend per run — what the executor
// daemon does per request) vs warm (one backend whose scratch keeps traces
// and engine arenas, recycled reports, repeat runs of one plan)
// sessions/sec, plus allocations per run measured by hooking the global
// allocator.
//
// This is the acceptance gate for the warm-run work (docs/warm_path.md):
//   * warm steady-state allocations per run must be exactly 0;
//   * warm sessions/sec must be >= 1.5x cold.
// Both sides run on one thread in 9 alternating trials (which side goes
// first alternates too), each side's runs timed in thread CPU
// (CLOCK_THREAD_CPUTIME_ID), and the gate takes the median of the per-trial
// ratios, so one noisy sample cannot decide it. The bench exits nonzero when
// either bar fails, and appends its rows (the per-side medians) to
// BENCH_engine.json (created by micro_engine_hotpath; a fresh file is
// written when it does not exist) so compare_bench.py tracks both metrics
// across PRs.
//
//   $ ./build/bench/micro_warm_session
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/nvx.h"

namespace {

// Global allocation hook: counts operator new calls while enabled. The warm
// loop is single-threaded, but the counters are atomic so stray background
// allocation would surface as a gate failure rather than a data race.
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }

using namespace bunshin;

namespace {

constexpr size_t kVariants = 8;
constexpr size_t kTrials = 9;
constexpr size_t kRunsPerTrial = 200;
constexpr double kMinSpeedup = 1.5;

struct Sample {
  double sessions_per_sec = 0.0;
  double allocs_per_run = 0.0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Runs `run` kRunsPerTrial times with the allocation hook armed, returning
// runs per thread-CPU second and allocations per run; zero throughput when
// a run fails.
template <typename Fn>
Sample TimeRuns(const Fn& run) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  const double start = ThreadCpuSeconds();
  for (size_t i = 0; i < kRunsPerTrial; ++i) {
    if (!run()) {
      g_count_allocs.store(false, std::memory_order_relaxed);
      return {};
    }
  }
  const double cpu = ThreadCpuSeconds() - start;
  g_count_allocs.store(false, std::memory_order_relaxed);
  Sample s;
  s.sessions_per_sec = static_cast<double>(kRunsPerTrial) / cpu;
  s.allocs_per_run = static_cast<double>(g_allocs.load(std::memory_order_relaxed)) /
                     static_cast<double>(kRunsPerTrial);
  return s;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Appends rows to BENCH_engine.json in place (micro_engine_hotpath writes the
// file first in CI; standalone invocations start a fresh one).
int EmitRows(const std::string& rows_json) {
  const char* json_path = "BENCH_engine.json";
  std::string existing;
  if (FILE* in = std::fopen(json_path, "r")) {
    char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      existing.append(buf, got);
    }
    std::fclose(in);
  }
  std::string out_text;
  const size_t tail = existing.rfind("\n  ]");
  if (tail != std::string::npos) {
    out_text = existing.substr(0, tail) + ",\n" + rows_json + existing.substr(tail + 1);
  } else {
    out_text = "{\n  \"host_cores\": " + std::to_string(std::thread::hardware_concurrency()) +
               ",\n  \"rows\": [\n" + rows_json + "  ]\n}\n";
  }
  FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fwrite(out_text.data(), 1, out_text.size(), out);
  std::fclose(out);
  std::printf("appended warm_session rows to %s\n", json_path);
  return 0;
}

}  // namespace

int main() {
  bench::PrintHeader("Warm-run engine (scratch-held arenas + recycled reports vs fresh backends)",
                     "steady-state monitor cost; paper §4.2 deployment model");

  const workload::BenchmarkSpec& bench = workload::Spec2006()[0];  // perlbench
  std::printf("benchmark %s, %zu variants, host cores: %u, %zu trials of %zu runs per side\n\n",
              bench.name.c_str(), kVariants, std::thread::hardware_concurrency(), kTrials,
              kRunsPerTrial);

  api::NvxBuilder builder;
  builder.Benchmark(bench)
      .Variants(kVariants)
      .Lockstep(nxe::LockstepMode::kSelective)
      .Seed(2027);
  StatusOr<api::VariantPlan> plan = builder.PlanVariants();
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  auto shared_plan = std::make_shared<const api::VariantPlan>(std::move(*plan));
  std::vector<size_t> members(kVariants);
  std::iota(members.begin(), members.end(), 0);
  const api::RunRequest request;  // default seed: every run repeats the plan

  // Cold: a fresh backend per run — per-request trace construction, baseline
  // simulation, and engine arenas, exactly the daemon's per-request shape.
  auto one_cold_run = [&] {
    auto backend = api::MakeTraceBackend(shared_plan, members, /*owns_baseline=*/true);
    if (!backend.ok()) {
      return false;
    }
    auto report = (*backend)->Run(request);
    return report.ok() && report->outcome == api::NvxOutcome::kOk;
  };

  // Warm: one backend running the same plan repeatedly with recycled
  // reports — the allocation-free steady state.
  auto warm_backend = api::MakeTraceBackend(shared_plan, members, /*owns_baseline=*/true);
  if (!warm_backend.ok()) {
    std::fprintf(stderr, "warm backend build failed: %s\n",
                 warm_backend.status().ToString().c_str());
    return 1;
  }
  auto one_warm_run = [&] {
    auto report = (*warm_backend)->Run(request);
    if (!report.ok() || report->outcome != api::NvxOutcome::kOk) {
      return false;
    }
    api::RecycleReport(std::move(*report));
    return true;
  };
  // Warm-up (and a correctness cross-check: the warm path must report the
  // same run the cold path does) before arming the allocation counter.
  auto warm_check = (*warm_backend)->Run(request);
  auto cold_check = api::MakeTraceBackend(shared_plan, members, true);
  auto cold_report = (*cold_check)->Run(request);
  if (!warm_check.ok() || !cold_report.ok() ||
      warm_check->total_time != cold_report->total_time ||
      warm_check->synced_syscalls != cold_report->synced_syscalls ||
      warm_check->variant_finish_time != cold_report->variant_finish_time) {
    std::fprintf(stderr, "warm report differs from fresh report\n");
    return 1;
  }
  api::RecycleReport(std::move(*warm_check));
  for (int i = 0; i < 8; ++i) {
    if (!one_warm_run() || !one_cold_run()) {
      std::fprintf(stderr, "warm-up run failed\n");
      return 1;
    }
  }

  std::vector<double> cold_rate, warm_rate, ratios;
  double cold_allocs = 0.0;
  double warm_allocs = 0.0;
  std::printf("%-6s %-6s %14s %14s %10s\n", "trial", "first", "cold sess/s", "warm sess/s",
              "speedup");
  for (size_t trial = 0; trial < kTrials; ++trial) {
    const bool warm_first = trial % 2 == 1;
    Sample cold;
    Sample warm;
    for (size_t side = 0; side < 2; ++side) {
      if ((side == 0) == warm_first) {
        // Cold runs drop their reports, draining the recycled-report
        // freelist the warm backend draws from: refill it untimed.
        if (!one_warm_run()) {
          std::fprintf(stderr, "warm-up run failed\n");
          return 1;
        }
        warm = TimeRuns(one_warm_run);
      } else {
        cold = TimeRuns(one_cold_run);
      }
    }
    if (cold.sessions_per_sec <= 0.0 || warm.sessions_per_sec <= 0.0) {
      std::fprintf(stderr, "trial %zu: a run failed\n", trial);
      return 1;
    }
    cold_rate.push_back(cold.sessions_per_sec);
    warm_rate.push_back(warm.sessions_per_sec);
    ratios.push_back(warm.sessions_per_sec / cold.sessions_per_sec);
    cold_allocs += cold.allocs_per_run / kTrials;
    warm_allocs += warm.allocs_per_run / kTrials;
    std::printf("%-6zu %-6s %14.1f %14.1f %9.2fx\n", trial, warm_first ? "warm" : "cold",
                cold.sessions_per_sec, warm.sessions_per_sec, ratios.back());
  }

  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[kTrials / 2];
  std::printf("\n%-6s %14s %16s\n", "mode", "sessions/sec", "allocs/run");
  std::printf("%-6s %14.1f %16.1f\n", "cold", Median(cold_rate), cold_allocs);
  std::printf("%-6s %14.1f %16.1f\n", "warm", Median(warm_rate), warm_allocs);
  std::printf("\nspeedup %.2fx (median of %zu trials) [q1 %.2fx, q3 %.2fx]\n", speedup, kTrials,
              ratios[kTrials / 4], ratios[kTrials - 1 - kTrials / 4]);

  char rows[512];
  std::snprintf(rows, sizeof(rows),
                "    {\"workload\": \"warm_session\", \"mode\": \"cold\", \"n_variants\": %zu, "
                "\"sessions_per_sec\": %.2f, \"allocs_per_run\": %.2f},\n"
                "    {\"workload\": \"warm_session\", \"mode\": \"warm\", \"n_variants\": %zu, "
                "\"sessions_per_sec\": %.2f, \"allocs_per_run\": %.2f}\n",
                kVariants, Median(cold_rate), cold_allocs, kVariants, Median(warm_rate),
                warm_allocs);
  if (EmitRows(rows) != 0) {
    return 1;
  }

  int rc = 0;
  if (warm_allocs > 0.0) {
    std::fprintf(stderr, "GATE FAIL: warm steady state allocated %.2f times/run (want 0)\n",
                 warm_allocs);
    rc = 1;
  }
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "GATE FAIL: warm speedup %.2fx (want >= %.1fx)\n", speedup,
                 kMinSpeedup);
    rc = 1;
  }
  if (rc == 0) {
    std::printf("GATE PASS: warm allocs/run = 0, speedup >= %.1fx\n", kMinSpeedup);
  }
  return rc;
}
