// Shard scaling on the engine hot path: sessions/sec and per-variant
// overhead vs shard count at n_variants in {2, 4, 8}.
//
// Sharding does not change what a session computes (see tests/shard_test.cc)
// — it changes who computes it: each engine instance simulates only its
// shard's traces, and the shards run concurrently on the session pool. On a
// multi-core host the sharded wall-clock at n_variants = 8 should be well
// below the unsharded one — this bench gates on > 1.3x sessions/sec at 4
// shards when the host has >= 4 cores. A 1-core host (some CI runners)
// shows ~1.0x or a small regression (the leader-replica redundancy with no
// parallelism to pay for it), so the gate self-skips there; the emitted rows
// carry detected_cores so compare_bench.py's shard_speedup gate knows
// whether two artifacts are comparable. The virtual overhead column is the
// merged report's Overhead() — nearly flat across shard counts (a shard's
// leader replica stalls slightly less behind a smaller follower set in
// selective mode), which is the point: sharding is a wall-clock
// optimization, not a semantics change.
//
// This bench is also the workload that surfaced the Engine::Run per-event
// vector growth fixed in src/nxe/engine.cc (per-action bookkeeping is now
// reserved up front from one pass over the leader trace).
//
//   $ ./build/bench/micro_shard_scaling
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/api/nvx.h"

using namespace bunshin;

namespace {

struct Sample {
  double seconds = -1.0;
  double overhead = 0.0;  // virtual, from the (merged) report
};

// Wall-clock seconds and virtual overhead for `runs` sessions of `n`
// check-distributed variants split across `shards` engine shards
// (shards == 0 builds the unsharded session).
Sample TimeConfig(const workload::BenchmarkSpec& bench, size_t n, size_t shards, size_t runs) {
  api::NvxBuilder builder;
  builder.Benchmark(bench)
      .Variants(n)
      .DistributeChecks(san::SanitizerId::kASan)
      .Lockstep(nxe::LockstepMode::kSelective)
      .Seed(2027);
  if (shards > 0) {
    builder.Shards(shards);
  }
  auto session = builder.Build();
  if (!session.ok()) {
    std::fprintf(stderr, "setup failed (n=%zu, shards=%zu): %s\n", n, shards,
                 session.status().ToString().c_str());
    return {};
  }

  Sample sample;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < runs; ++i) {
    api::RunRequest request;
    request.workload_seed = 1 + i;
    auto report = session->Run(request);
    if (!report.ok() || report->outcome != api::NvxOutcome::kOk) {
      std::fprintf(stderr, "run failed (n=%zu, shards=%zu)\n", n, shards);
      return {};
    }
    auto overhead = report->Overhead();
    sample.overhead = overhead.ok() ? *overhead : -1.0;
  }
  sample.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return sample;
}

// Appends rows to BENCH_engine.json in place (micro_engine_hotpath writes
// the file first in CI; standalone invocations start a fresh one).
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
  std::printf("appended shard_scaling rows to %s\n", json_path);
  return 0;
}

}  // namespace

int main() {
  bench::PrintHeader("Shard scaling (sessions/sec, per-variant overhead vs shard count)",
                     "variant sharding (ROADMAP); no paper figure");

  const workload::BenchmarkSpec& bench = workload::Spec2006()[0];  // perlbench
  constexpr size_t kRuns = 24;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("benchmark %s, ASan check distribution, selective lockstep, %zu runs/row\n",
              bench.name.c_str(), kRuns);
  std::printf("host cores: %u (sharded speedup needs >1; virtual overhead is core-count"
              " independent)\n\n",
              cores);

  std::string rows_json;
  double gate_speedup = -1.0;  // n=8, 4 shards — the gated configuration
  std::printf("%-10s %-8s %12s %14s %10s %12s\n", "variants", "shards", "wall (s)",
              "sessions/sec", "speedup", "overhead");
  for (size_t n : {2u, 4u, 8u}) {
    double base_rate = 0.0;
    for (size_t shards : {0u, 2u, 4u}) {
      if (shards > 0 && shards >= n) {
        continue;  // fewer followers than shard groups: nothing left to split
      }
      const Sample sample = TimeConfig(bench, n, shards, kRuns);
      if (sample.seconds < 0.0) {
        return 1;
      }
      const double rate = static_cast<double>(kRuns) / sample.seconds;
      if (shards == 0) {
        base_rate = rate;
      }
      const double speedup = rate / base_rate;
      if (n == 8 && shards == 4) {
        gate_speedup = speedup;
      }
      char label[16];
      std::snprintf(label, sizeof(label), shards == 0 ? "-" : "%zu", shards);
      std::printf("%-10zu %-8s %12.3f %14.1f %9.2fx %11.1f%%\n", n, label, sample.seconds,
                  rate, speedup, sample.overhead * 100.0);

      // Only sharded rows and only the ratio are emitted: absolute
      // sessions/sec at these short walls is too noisy to gate, while the
      // sharded-vs-unsharded ratio cancels the host's speed out (and is
      // identically 1.0 for the unsharded row).
      if (shards > 0) {
        char row[256];
        std::snprintf(row, sizeof(row),
                      "    {\"workload\": \"shard_scaling\", \"mode\": \"shards%zu\", "
                      "\"n_variants\": %zu, \"shard_speedup\": %.3f, \"detected_cores\": %u},\n",
                      shards, n, speedup, cores);
        rows_json += row;
      }
    }
    std::printf("\n");
  }
  std::printf("speedup is vs the unsharded session at the same n_variants.\n");

  if (!rows_json.empty()) {
    rows_json.erase(rows_json.size() - 2, 1);  // drop the trailing comma, keep the newline
  }
  if (EmitRows(rows_json) != 0) {
    return 1;
  }

  if (cores < 4) {
    std::printf("gate skipped: %u cores cannot exhibit shard parallelism (need >= 4)\n", cores);
    return 0;
  }
  if (gate_speedup < 1.3) {
    std::fprintf(stderr,
                 "GATE FAIL: 4 shards at n=8 gave %.2fx sessions/sec vs unsharded "
                 "(want > 1.3x on a >= 4-core host)\n",
                 gate_speedup);
    return 1;
  }
  std::printf("gate passed: %.2fx > 1.3x at n=8, 4 shards\n", gate_speedup);
  return 0;
}
