// Engine scheduler hot path: sessions/sec and ns/event vs n_variants for the
// event-driven Engine::Run against the retained round-based RunReference.
//
// Unlike the other harnesses this bench deliberately calls the engine
// directly (not the session API): it isolates the scheduler that the async
// pools, shard groups and plan cache all funnel millions of sessions into. The reference re-scans all variants x threads every
// progress round, so its per-event cost grows with session width; the
// event-driven scheduler touches only the threads whose dependency changed,
// so ns/event should stay near-flat as n_variants grows while the
// reference's climbs. Both produce bit-identical SyncReports
// (tests/engine_property_test.cc), which this bench re-checks on the fly on
// the timing workload's counters.
//
// Emits machine-readable BENCH_engine.json (in the working directory) so the
// perf trajectory is tracked across PRs; CI uploads it as an artifact.
//
//   $ ./build/bench/micro_engine_hotpath
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/nxe/engine.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

using namespace bunshin;

namespace {

struct Sample {
  double sessions_per_sec = 0.0;
  double ns_per_event = 0.0;
};

// Actions simulated per session: every thread action of every variant is
// touched at least once, so this is the natural "event" denominator.
size_t SessionEvents(const std::vector<nxe::VariantTrace>& variants) {
  size_t events = 0;
  for (const auto& v : variants) {
    events += v.TotalActions();
  }
  return events;
}

// Times `run` until it has consumed ~min_seconds of wall clock (at least
// min_reps iterations), returning the rate.
template <typename Fn>
Sample TimeScheduler(const Fn& run, size_t events, size_t min_reps, double min_seconds) {
  using clock = std::chrono::steady_clock;
  size_t reps = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    if (!run()) {
      return {};
    }
    ++reps;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (reps < min_reps || elapsed < min_seconds);
  Sample s;
  s.sessions_per_sec = static_cast<double>(reps) / elapsed;
  s.ns_per_event = elapsed * 1e9 / (static_cast<double>(reps) * static_cast<double>(events));
  return s;
}

}  // namespace

int main() {
  bench::PrintHeader("Engine scheduler hot path (event-driven Run vs round-based reference)",
                     "engine hot path (ROADMAP); overheads per paper §5.1-§5.3");

  const workload::BenchmarkSpec& bench = *workload::FindBenchmark("perlbench");
  std::printf("benchmark %s (%zu syscalls/run), host cores: %u\n\n", bench.name.c_str(),
              bench.n_syscalls, std::thread::hardware_concurrency());
  std::printf("%-10s %-8s %9s %14s %12s %14s %9s\n", "mode", "variants", "events",
              "sessions/sec", "ns/event", "ref sess/sec", "speedup");

  struct Row {
    const char* workload;
    const char* mode;
    size_t n;
    size_t events;
    Sample ours;
    Sample ref;
  };
  std::vector<Row> rows;

  // Two session shapes: the syscall-heavy single-threaded stream (eager
  // chained path) and the lock-heavy multithreaded trace whose weak-
  // determinism replay routes through the round-aligned event scheduler.
  const workload::BenchmarkSpec& mt = *workload::FindBenchmark("radiosity");
  for (const auto* shape : {&bench, &mt}) {
    std::printf("-- %s (%zu threads%s)\n", shape->name.c_str(), shape->threads,
                shape->locks_per_kilo > 0 ? ", lock-heavy" : "");
    for (const nxe::LockstepMode mode :
         {nxe::LockstepMode::kStrict, nxe::LockstepMode::kSelective}) {
      for (const size_t n : {2u, 4u, 8u, 16u, 32u}) {
        nxe::EngineConfig config;
        config.mode = mode;
        config.cache_sensitivity = shape->cache_sensitivity;
        nxe::Engine engine(config);
        const auto variants = workload::BuildIdenticalVariants(*shape, n, 2026);
        const size_t events = SessionEvents(variants);

        // A cheap live cross-check that both schedulers agree on this exact
        // workload (the property suite is the real gate).
        auto a = engine.Run(variants);
        auto b = engine.RunReference(variants);
        if (!a.ok() || !b.ok() || !a->completed || !b->completed ||
            a->synced_syscalls != b->synced_syscalls || a->total_time != b->total_time) {
          std::fprintf(stderr, "scheduler mismatch at %s %s n=%zu\n", shape->name.c_str(),
                       nxe::LockstepModeName(mode), n);
          return 1;
        }

        const Sample ours = TimeScheduler(
            [&] { return engine.Run(variants).ok(); }, events, 8, 0.25);
        const Sample ref = TimeScheduler(
            [&] { return engine.RunReference(variants).ok(); }, events, 4, 0.25);
        if (ours.sessions_per_sec <= 0.0 || ref.sessions_per_sec <= 0.0) {
          std::fprintf(stderr, "run failed at %s n=%zu\n", nxe::LockstepModeName(mode), n);
          return 1;
        }
        rows.push_back({shape->name.c_str(), nxe::LockstepModeName(mode), n, events, ours, ref});
        std::printf("%-10s %-8zu %9zu %14.1f %12.1f %14.1f %8.2fx\n",
                    nxe::LockstepModeName(mode), n, events, ours.sessions_per_sec,
                    ours.ns_per_event, ref.sessions_per_sec,
                    ours.sessions_per_sec / ref.sessions_per_sec);
      }
      std::printf("\n");
    }
  }

  std::string rows_json;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"workload\": \"%s\", \"mode\": \"%s\", \"n_variants\": %zu, "
                  "\"events\": %zu, \"sessions_per_sec\": %.2f, \"ns_per_event\": %.2f, "
                  "\"ref_sessions_per_sec\": %.2f, \"speedup\": %.3f}%s\n",
                  r.workload, r.mode, r.n, r.events, r.ours.sessions_per_sec,
                  r.ours.ns_per_event, r.ref.sessions_per_sec,
                  r.ours.sessions_per_sec / r.ref.sessions_per_sec,
                  i + 1 < rows.size() ? "," : "");
    rows_json += line;
  }
  if (bench::EmitEngineRows(rows_json, /*fresh=*/true) != 0) {
    return 1;
  }
  std::printf("wrote BENCH_engine.json (speedup is event-driven Run vs the retained reference "
              "scheduler)\n");
  return 0;
}
