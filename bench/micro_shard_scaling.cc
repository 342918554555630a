// Shard work inflation: the total CPU a Shards(4) session costs over the
// unsharded one.
//
// In Bunshin the variants run in parallel and the engine models that in
// virtual time, so a sharded session runs its shard groups one after another
// on the calling thread: sharding changes who is simulated together, not
// how fast one session finishes (see tests/shard_test.cc for what it must not
// change). What it must not do is multiply the work. This bench alternates
// unsharded and Shards(4) sessions on one thread — perlbench, ASan check
// distribution, selective lockstep, n = 8, a fresh workload seed per run —
// and sums process CPU (CLOCK_PROCESS_CPUTIME_ID, so work done on any other
// thread counts too) for each side of 9 trials, alternating which side goes
// first. Both sides share the host and the thread, so their ratio is
// host-independent. The work left is the leader replicas' engine time, which
// the design requires. The bench gates the median ratio at <= 1.3 and
// appends a work_inflation row to BENCH_engine.json for
// bench/compare_bench.py.
//
//   $ ./build/bench/micro_shard_scaling
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/nvx.h"

using namespace bunshin;

namespace {

constexpr size_t kVariants = 8;
constexpr size_t kShards = 4;
constexpr size_t kTrials = 9;
constexpr size_t kRunsPerTrial = 200;
constexpr double kMaxInflation = 1.3;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

StatusOr<api::NvxSession> BuildSession(const workload::BenchmarkSpec& bench, size_t shards) {
  api::NvxBuilder builder;
  builder.Benchmark(bench)
      .Variants(kVariants)
      .DistributeChecks(san::SanitizerId::kASan)
      .Lockstep(nxe::LockstepMode::kSelective)
      .Seed(2027);
  if (shards > 0) {
    builder.Shards(shards);
  }
  return builder.Build();
}

// Process CPU seconds for `runs` sessions on fresh seeds from `first_seed`;
// negative when a run fails. `overhead` receives the last run's virtual
// overhead.
double TimeRuns(const api::NvxSession& session, uint64_t first_seed, size_t runs,
                double* overhead) {
  const double start = ProcessCpuSeconds();
  for (size_t i = 0; i < runs; ++i) {
    api::RunRequest request;
    request.workload_seed = first_seed + i;
    auto report = session.Run(request);
    if (!report.ok() || report->outcome != api::NvxOutcome::kOk) {
      return -1.0;
    }
    auto virtual_overhead = report->Overhead();
    *overhead = virtual_overhead.ok() ? *virtual_overhead : -1.0;
  }
  return ProcessCpuSeconds() - start;
}

}  // namespace

int main() {
  bench::PrintHeader("Shard work inflation (process CPU, Shards(4) vs unsharded)",
                     "variant sharding (ROADMAP); no paper figure");

  const workload::BenchmarkSpec& bench = workload::Spec2006()[0];  // perlbench
  std::printf("benchmark %s, ASan check distribution, selective lockstep, n = %zu, "
              "%zu fresh-seed runs per side per trial\n\n",
              bench.name.c_str(), kVariants, kRunsPerTrial);

  auto unsharded = BuildSession(bench, 0);
  auto sharded = BuildSession(bench, kShards);
  if (!unsharded.ok() || !sharded.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 (unsharded.ok() ? sharded.status() : unsharded.status()).ToString().c_str());
    return 1;
  }

  std::vector<double> ratios;
  double unsharded_overhead = 0.0;
  double sharded_overhead = 0.0;
  // Warm both sessions' scratch buffers on seeds no trial uses, so the
  // first trial does not pay for them.
  constexpr uint64_t kWarmupSeed = 1'000'000;
  if (TimeRuns(*unsharded, kWarmupSeed, 20, &unsharded_overhead) < 0.0 ||
      TimeRuns(*sharded, kWarmupSeed, 20, &sharded_overhead) < 0.0) {
    std::fprintf(stderr, "warm-up run failed\n");
    return 1;
  }
  std::printf("%-6s %-14s %18s %18s %10s\n", "trial", "first", "unsharded ms/run",
              "sharded ms/run", "ratio");
  for (size_t trial = 0; trial < kTrials; ++trial) {
    // Both sides replay the same fresh seeds, in separate sessions, so
    // neither finds the other's traces memoized.
    const uint64_t first_seed = 1 + trial * kRunsPerTrial;
    const bool sharded_first = trial % 2 == 1;
    double cpu[2] = {0.0, 0.0};  // [unsharded, sharded]
    for (size_t side = 0; side < 2; ++side) {
      const bool run_sharded = (side == 0) == sharded_first;
      cpu[run_sharded ? 1 : 0] =
          TimeRuns(run_sharded ? *sharded : *unsharded, first_seed, kRunsPerTrial,
                   run_sharded ? &sharded_overhead : &unsharded_overhead);
    }
    if (cpu[0] <= 0.0 || cpu[1] < 0.0) {
      std::fprintf(stderr, "trial %zu: a run failed\n", trial);
      return 1;
    }
    ratios.push_back(cpu[1] / cpu[0]);
    std::printf("%-6zu %-14s %18.4f %18.4f %9.2fx\n", trial,
                sharded_first ? "sharded" : "unsharded", cpu[0] * 1e3 / kRunsPerTrial,
                cpu[1] * 1e3 / kRunsPerTrial, ratios.back());
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[kTrials / 2];
  std::printf("\nwork inflation: median %.2fx [q1 %.2fx, q3 %.2fx] over %zu trials\n", median,
              ratios[kTrials / 4], ratios[kTrials - 1 - kTrials / 4], kTrials);
  std::printf("virtual overhead of the last run: unsharded %.1f%%, sharded %.1f%%\n",
              unsharded_overhead * 100.0, sharded_overhead * 100.0);

  char row[256];
  std::snprintf(row, sizeof(row),
                "    {\"workload\": \"shard_scaling\", \"mode\": \"shards%zu\", "
                "\"n_variants\": %zu, \"work_inflation\": %.3f}\n",
                kShards, kVariants, median);
  if (bench::EmitEngineRows(row, /*fresh=*/false) != 0) {
    return 1;
  }
  std::printf("appended shard_scaling rows to BENCH_engine.json\n");

  if (median > kMaxInflation) {
    std::fprintf(stderr,
                 "GATE FAIL: Shards(%zu) at n=%zu cost %.2fx the unsharded process CPU "
                 "(want <= %.1fx)\n",
                 kShards, kVariants, median, kMaxInflation);
    return 1;
  }
  std::printf("gate passed: %.2fx <= %.1fx at n=%zu, %zu shards\n", median, kMaxInflation,
              kVariants, kShards);
  return 0;
}
