// Warm-run engine path: cold (a fresh backend per run — what the executor
// daemon does per request) vs warm (one backend whose scratch keeps traces
// and engine arenas, recycled reports, repeat runs of one plan)
// sessions/sec, plus allocations per run measured by hooking the global
// allocator.
//
// This is the acceptance gate for the warm-run work (docs/warm_path.md):
//   * warm steady-state allocations per run must be exactly 0;
//   * warm sessions/sec must be >= 1.5x cold.
// The bench exits nonzero when either fails, and appends its rows to
// BENCH_engine.json (created by micro_engine_hotpath; a fresh file is
// written when it does not exist) so compare_bench.py tracks both metrics
// across PRs.
//
//   $ ./build/bench/micro_warm_session
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

struct Sample {
  double sessions_per_sec = 0.0;
  double allocs_per_run = 0.0;
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Runs `run` repeatedly for >= min_seconds (>= min_reps reps) with the
// allocation hook armed, returning throughput and allocations per rep.
template <typename Fn>
Sample TimeRuns(const Fn& run, size_t min_reps, double min_seconds) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  size_t reps = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    if (!run()) {
      g_count_allocs.store(false, std::memory_order_relaxed);
      return {};
    }
    ++reps;
    elapsed = Seconds(start);
  } while (reps < min_reps || elapsed < min_seconds);
  g_count_allocs.store(false, std::memory_order_relaxed);
  Sample s;
  s.sessions_per_sec = static_cast<double>(reps) / elapsed;
  s.allocs_per_run =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed)) / static_cast<double>(reps);
  return s;
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
  constexpr size_t kVariants = 8;
  std::printf("benchmark %s, %zu variants, host cores: %u\n\n", bench.name.c_str(), kVariants,
              std::thread::hardware_concurrency());

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
  const Sample cold = TimeRuns(
      [&] {
        auto backend = api::MakeTraceBackend(shared_plan, members, /*owns_baseline=*/true);
        if (!backend.ok()) {
          return false;
        }
        auto report = (*backend)->Run(request);
        return report.ok() && report->outcome == api::NvxOutcome::kOk;
      },
      8, 0.5);
  if (cold.sessions_per_sec <= 0.0) {
    std::fprintf(stderr, "cold run failed\n");
    return 1;
  }

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
    if (!one_warm_run()) {
      std::fprintf(stderr, "warm-up run failed\n");
      return 1;
    }
  }
  const Sample warm = TimeRuns(one_warm_run, 16, 0.5);
  if (warm.sessions_per_sec <= 0.0) {
    std::fprintf(stderr, "warm run failed\n");
    return 1;
  }

  const double speedup = warm.sessions_per_sec / cold.sessions_per_sec;
  std::printf("%-6s %14s %16s\n", "mode", "sessions/sec", "allocs/run");
  std::printf("%-6s %14.1f %16.1f\n", "cold", cold.sessions_per_sec, cold.allocs_per_run);
  std::printf("%-6s %14.1f %16.1f\n", "warm", warm.sessions_per_sec, warm.allocs_per_run);
  std::printf("\nspeedup %.2fx\n", speedup);

  char rows[512];
  std::snprintf(rows, sizeof(rows),
                "    {\"workload\": \"warm_session\", \"mode\": \"cold\", \"n_variants\": %zu, "
                "\"sessions_per_sec\": %.2f, \"allocs_per_run\": %.2f},\n"
                "    {\"workload\": \"warm_session\", \"mode\": \"warm\", \"n_variants\": %zu, "
                "\"sessions_per_sec\": %.2f, \"allocs_per_run\": %.2f}\n",
                kVariants, cold.sessions_per_sec, cold.allocs_per_run, kVariants,
                warm.sessions_per_sec, warm.allocs_per_run);
  if (EmitRows(rows) != 0) {
    return 1;
  }

  int rc = 0;
  if (warm.allocs_per_run > 0.0) {
    std::fprintf(stderr, "GATE FAIL: warm steady state allocated %.2f times/run (want 0)\n",
                 warm.allocs_per_run);
    rc = 1;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr, "GATE FAIL: warm speedup %.2fx (want >= 1.5x)\n", speedup);
    rc = 1;
  }
  if (rc == 0) {
    std::printf("GATE PASS: warm allocs/run = 0, speedup >= 1.5x\n");
  }
  return rc;
}
