// Shared helpers for the per-figure/table benchmark harnesses. All harnesses
// program against the unified session API (src/api/nvx.h) — no direct engine
// or pipeline calls.
#ifndef BUNSHIN_BENCH_BENCH_UTIL_H_
#define BUNSHIN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/api/nvx.h"
#include "src/support/stats.h"
#include "src/support/table.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace bench {

// Overhead of synchronizing `n` identical clones of `bench` under `mode`.
inline double NxeOverhead(const workload::BenchmarkSpec& bench, size_t n,
                          nxe::LockstepMode mode, uint64_t seed, int cores = 4,
                          double background_load = 0.02) {
  auto session = api::NvxBuilder()
                     .Benchmark(bench)
                     .Variants(n)
                     .Lockstep(mode)
                     .Cores(cores)
                     .BackgroundLoad(background_load)
                     .Seed(seed)
                     .Build();
  if (!session.ok()) {
    std::fprintf(stderr, "session setup failed on %s: %s\n", bench.name.c_str(),
                 session.status().ToString().c_str());
    return -1.0;
  }
  auto report = session->Run();
  if (!report.ok() || report->outcome != api::NvxOutcome::kOk) {
    std::fprintf(stderr, "engine failed on %s: %s\n", bench.name.c_str(),
                 report.ok() ? "incident" : report.status().ToString().c_str());
    return -1.0;
  }
  auto overhead = report->Overhead();
  if (!overhead.ok()) {
    std::fprintf(stderr, "no baseline on %s: %s\n", bench.name.c_str(),
                 overhead.status().ToString().c_str());
    return -1.0;
  }
  return *overhead;
}

inline void PrintHeader(const std::string& title, const std::string& paper_reference) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Paper reference: %s\n\n", paper_reference.c_str());
}

// The microbenches' one emitter: writes `rows_json` (row objects, one per
// line, comma-separated, each line ending "\n") into BENCH_engine.json in the
// working directory. fresh = true starts a new file; otherwise the rows are
// appended to the file's row list, or start a new file when there is none
// (micro_engine_hotpath writes the file first in CI; other benches run
// standalone start one). Returns 0, or 1 when the file cannot be written.
inline int EmitEngineRows(const std::string& rows_json, bool fresh) {
  const char* json_path = "BENCH_engine.json";
  std::string existing;
  if (FILE* in = fresh ? nullptr : std::fopen(json_path, "r")) {
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
  return 0;
}

}  // namespace bench
}  // namespace bunshin

#endif  // BUNSHIN_BENCH_BENCH_UTIL_H_
