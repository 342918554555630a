// nvx_analyze: offline front end of the static plan & trace analyzer
// (src/analysis/). The same rule catalog that gates NvxBuilder::Build() and
// net::ExecutorServer runs here against plan files and seeded trace corpora,
// so CI can prove coverage/deadlock-freedom for committed artifacts without
// executing anything.
//
//   nvx_analyze [--seed S] <plan-file>...
//       Decode each wire-format VariantPlan file, run the analyzer, print the
//       full diagnostic listing. Exit 1 if any file carries errors (or fails
//       to decode), 0 otherwise. --seed overrides the workload seed the
//       liveness rules analyze at (mirror of RunRequest::workload_seed).
//
//   nvx_analyze --lint <plan-file>...
//       Expectation-checked mode for CI: a file named ok_*.plan must analyze
//       clean, a file named bad_*.plan must carry at least one error. Exit 1
//       on any violated expectation.
//
//   nvx_analyze --write-corpus <dir>
//       Regenerate the committed fixture corpus (corpus/plans/): well-formed
//       plans for every distribution strategy plus hostile mutants
//       (coverage gaps/overlaps, conflicting sanitizer groups, out-of-range
//       injections, deadlock-shaped engine configs, an unbounded trace
//       shape). Each fixture is
//       self-checked against its ok_/bad_ expectation before writing.
//
//   nvx_analyze --seeded N
//       Analyze N seeded random engine sessions (the shared corpus generator
//       of src/analysis/corpus.h) and cross-check every verdict against a
//       real engine run: a "deadlock-free" verdict must never precede an
//       engine Status error. Exit 1 on the first false-safe verdict.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/corpus.h"
#include "src/analysis/plan_analyzer.h"
#include "src/analysis/trace_analyzer.h"
#include "src/api/nvx.h"
#include "src/net/wire.h"
#include "src/nxe/engine.h"
#include "src/workload/workload.h"

namespace {

using bunshin::analysis::AnalysisReport;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] <plan-file>...   analyze wire-plan files\n"
               "       %s --lint <plan-file>...       ok_* must be clean, bad_* must error\n"
               "       %s --write-corpus <dir>        regenerate the fixture corpus\n"
               "       %s --seeded N                  cross-check N seeded trace cases\n",
               argv0, argv0, argv0, argv0);
}

bunshin::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return bunshin::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Analyzes one plan file. Returns the report, or nullopt (with a printed
// message) when the file cannot be read or decoded — which counts as
// "carries errors" for exit-code purposes: the executor rejects such a plan
// at its decode stage, before the analyzer even runs.
std::optional<AnalysisReport> AnalyzeFile(const std::string& path,
                                          std::optional<uint64_t> seed) {
  bunshin::StatusOr<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) {
    std::printf("%s: %s\n", path.c_str(), bytes.status().ToString().c_str());
    return std::nullopt;
  }
  bunshin::StatusOr<bunshin::api::VariantPlan> plan = bunshin::net::DecodeVariantPlan(*bytes);
  if (!plan.ok()) {
    std::printf("%s: decode failed: %s\n", path.c_str(), plan.status().ToString().c_str());
    return std::nullopt;
  }
  return bunshin::analysis::AnalyzePlan(*plan, seed);
}

void PrintReport(const std::string& path, const AnalysisReport& report) {
  std::printf("%s: %s\n", path.c_str(), report.Summary().c_str());
  const std::string rendered = report.Render();
  if (!rendered.empty()) {
    std::printf("%s", rendered.c_str());
  }
}

int RunAnalyze(const std::vector<std::string>& files, std::optional<uint64_t> seed) {
  size_t failed = 0;
  for (const std::string& path : files) {
    std::optional<AnalysisReport> report = AnalyzeFile(path, seed);
    if (!report.has_value()) {
      ++failed;
      continue;
    }
    PrintReport(path, *report);
    if (!report->ok()) {
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

int RunLint(const std::vector<std::string>& files) {
  size_t violations = 0;
  for (const std::string& path : files) {
    const std::string base = std::filesystem::path(path).filename().string();
    const bool expect_clean = base.rfind("ok_", 0) == 0;
    const bool expect_errors = base.rfind("bad_", 0) == 0;
    if (!expect_clean && !expect_errors) {
      std::printf("lint FAIL %s: no expectation prefix (name fixtures ok_* or bad_*)\n",
                  path.c_str());
      ++violations;
      continue;
    }
    std::optional<AnalysisReport> report = AnalyzeFile(path, std::nullopt);
    // Undecodable counts as rejected: fine for bad_*, a violation for ok_*.
    const bool has_errors = !report.has_value() || !report->ok();
    if (has_errors == expect_errors) {
      std::printf("lint ok   %s: %s\n", path.c_str(),
                  report.has_value() ? report->Summary().c_str() : "rejected at decode");
    } else {
      std::printf("lint FAIL %s: expected %s but got %s\n", path.c_str(),
                  expect_clean ? "a clean report" : "errors",
                  report.has_value() ? report->Summary().c_str() : "a decode failure");
      if (report.has_value()) {
        std::printf("%s", report->Render().c_str());
      }
      ++violations;
    }
  }
  std::printf("lint: %zu file(s), %zu violation(s)\n", files.size(), violations);
  return violations == 0 ? 0 : 1;
}

// --- fixture corpus ----------------------------------------------------------

bunshin::StatusOr<bunshin::api::VariantPlan> FixturePlan(const char* benchmark,
                                                         bunshin::api::DistributionStrategy
                                                             strategy,
                                                         size_t n) {
  const bunshin::workload::BenchmarkSpec* spec = bunshin::workload::FindBenchmark(benchmark);
  if (spec == nullptr) {
    return bunshin::NotFound(std::string("no benchmark named ") + benchmark);
  }
  bunshin::api::NvxBuilder builder;
  builder.Benchmark(*spec).Variants(n).Seed(7);
  switch (strategy) {
    case bunshin::api::DistributionStrategy::kNone:
      break;
    case bunshin::api::DistributionStrategy::kCheck:
      builder.DistributeChecks(bunshin::san::SanitizerId::kASan);
      break;
    case bunshin::api::DistributionStrategy::kSanitizer:
      builder.DistributeSanitizers({bunshin::san::SanitizerId::kASan,
                                    bunshin::san::SanitizerId::kMSan,
                                    bunshin::san::SanitizerId::kUBSan});
      break;
    case bunshin::api::DistributionStrategy::kUbsanSub:
      builder.DistributeUbsanSubSanitizers();
      break;
  }
  return builder.PlanVariants();
}

struct Fixture {
  std::string name;  // ok_*.plan / bad_*.plan — the lint expectation
  bunshin::api::VariantPlan plan;
};

bunshin::StatusOr<std::vector<Fixture>> BuildFixtures() {
  std::vector<Fixture> fixtures;
  using bunshin::api::DistributionStrategy;

  auto add = [&fixtures](const char* name,
                         bunshin::StatusOr<bunshin::api::VariantPlan> plan) -> bunshin::Status {
    if (!plan.ok()) {
      return plan.status();
    }
    fixtures.push_back({name, std::move(*plan)});
    return bunshin::Status::Ok();
  };

  // Well-formed plans, one per distribution strategy plus a server target.
  bunshin::Status status = add("ok_none_clones.plan",
                               FixturePlan("bzip2", DistributionStrategy::kNone, 3));
  if (!status.ok()) return status;
  status = add("ok_check_asan.plan", FixturePlan("mcf", DistributionStrategy::kCheck, 4));
  if (!status.ok()) return status;
  status = add("ok_sanitizer_groups.plan",
               FixturePlan("bzip2", DistributionStrategy::kSanitizer, 3));
  if (!status.ok()) return status;
  status = add("ok_ubsan_subs.plan", FixturePlan("mcf", DistributionStrategy::kUbsanSub, 4));
  if (!status.ok()) return status;
  {
    bunshin::api::NvxBuilder builder;
    builder.Server(bunshin::workload::ServerSpec{}).Variants(2).Seed(7);
    status = add("ok_server_clones.plan", builder.PlanVariants());
    if (!status.ok()) return status;
  }

  // Hostile mutants of the well-formed plans. Every mutant still decodes as
  // a syntactically valid wire plan — these are exactly the plans only the
  // analyzer (not the wire decoder) can reject. (Copies, not references:
  // the push_backs below reallocate `fixtures`.)
  const bunshin::api::VariantPlan ok_none = fixtures[0].plan;
  const bunshin::api::VariantPlan ok_check = fixtures[1].plan;
  const bunshin::api::VariantPlan ok_san = fixtures[2].plan;

  {  // coverage/gap: one protected function silently dropped from its subset
    bunshin::api::VariantPlan mutant = ok_check;
    for (auto& subset : mutant.check_plan->protected_functions) {
      if (!subset.empty()) {
        subset.pop_back();
        break;
      }
    }
    fixtures.push_back({"bad_coverage_gap.plan", std::move(mutant)});
  }
  {  // coverage/overlap: one function protected by two variants
    bunshin::api::VariantPlan mutant = ok_check;
    auto& subsets = mutant.check_plan->protected_functions;
    if (subsets.size() >= 2 && !subsets[0].empty()) {
      subsets[1].push_back(subsets[0].front());
    }
    fixtures.push_back({"bad_coverage_overlap.plan", std::move(mutant)});
  }
  {  // coverage/unknown-function: a subset protects a name nobody profiled
    bunshin::api::VariantPlan mutant = ok_check;
    mutant.check_plan->protected_functions[0].push_back("__no_such_function");
    fixtures.push_back({"bad_coverage_unknown.plan", std::move(mutant)});
  }
  {  // coverage/group-conflict: ASan and MSan forced into one variant (§3.1)
    bunshin::api::VariantPlan mutant = ok_san;
    mutant.sanitizer_groups.clear();
    mutant.sanitizer_groups.push_back({"asan", "msan"});
    mutant.sanitizer_groups.push_back({"ubsan"});
    fixtures.push_back({"bad_group_conflict.plan", std::move(mutant)});
  }
  {  // plan/injection-range: a detection spliced into a variant that is absent
    bunshin::api::VariantPlan mutant = ok_none;
    mutant.detect_injections.push_back({99, "__asan_report_load"});
    fixtures.push_back({"bad_injection_range.plan", std::move(mutant)});
  }
  {  // liveness/ring-capacity: selective lockstep with no ring to run ahead in
    bunshin::api::VariantPlan mutant = ok_none;
    mutant.engine_config.mode = bunshin::nxe::LockstepMode::kSelective;
    mutant.engine_config.ring_capacity = 0;
    fixtures.push_back({"bad_ring_zero.plan", std::move(mutant)});
  }
  {  // plan/compute-scale: a variant claiming a non-positive virtual clock
    bunshin::api::VariantPlan mutant = ok_none;
    mutant.specs.back().compute_scale = 0.0;
    fixtures.push_back({"bad_compute_scale.plan", std::move(mutant)});
  }
  {  // plan/dual-target: both a benchmark and a server — trace construction
     // would be ambiguous
    bunshin::api::VariantPlan mutant = ok_none;
    mutant.server = bunshin::workload::ServerSpec{};
    fixtures.push_back({"bad_dual_target.plan", std::move(mutant)});
  }
  {  // plan/trace-shape: 2^40 threads — building the traces would exhaust
     // memory
    bunshin::api::VariantPlan mutant = ok_none;
    mutant.benchmark->threads = uint64_t{1} << 40;
    fixtures.push_back({"bad_trace_shape.plan", std::move(mutant)});
  }
  return fixtures;
}

int RunWriteCorpus(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "nvx_analyze: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  bunshin::StatusOr<std::vector<Fixture>> fixtures = BuildFixtures();
  if (!fixtures.ok()) {
    std::fprintf(stderr, "nvx_analyze: fixture planning failed: %s\n",
                 fixtures.status().ToString().c_str());
    return 1;
  }
  for (const Fixture& fixture : *fixtures) {
    // Self-check: a fixture that does not satisfy its own ok_/bad_ name would
    // poison every CI lint run that consumes the corpus.
    const AnalysisReport report = bunshin::analysis::AnalyzePlan(fixture.plan);
    const bool expect_errors = fixture.name.rfind("bad_", 0) == 0;
    if (report.ok() == expect_errors) {
      std::fprintf(stderr, "nvx_analyze: fixture %s violates its expectation: %s\n",
                   fixture.name.c_str(), report.Summary().c_str());
      return 1;
    }
    const std::string path = dir + "/" + fixture.name;
    const std::string bytes = bunshin::net::EncodeVariantPlan(fixture.plan);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::fprintf(stderr, "nvx_analyze: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes, %s)\n", path.c_str(), bytes.size(),
                report.Summary().c_str());
  }
  return 0;
}

// --- seeded trace-corpus cross-check ----------------------------------------

int RunSeeded(size_t n_cases) {
  size_t analyzer_unsafe = 0;
  size_t engine_errors = 0;
  size_t false_safe = 0;
  for (size_t seed = 0; seed < n_cases; ++seed) {
    const bunshin::analysis::RandomCase c = bunshin::analysis::GenerateCase(seed);
    AnalysisReport report;
    bunshin::analysis::AnalyzeTraces(c.config, c.variants, &report);
    const bunshin::nxe::Engine engine(c.config);
    const bunshin::StatusOr<bunshin::nxe::SyncReport> run = engine.Run(c.variants);
    if (!report.deadlock_free()) {
      ++analyzer_unsafe;
    }
    if (!run.ok()) {
      ++engine_errors;
      if (report.deadlock_free()) {
        // The one verdict that must never happen: the analyzer proved the
        // session safe and the engine then failed. Print everything.
        ++false_safe;
        std::printf("FALSE-SAFE seed %zu (%s): engine says %s\n", seed, c.label.c_str(),
                    run.status().ToString().c_str());
        std::printf("%s", report.Render().c_str());
      }
    }
  }
  std::printf("seeded corpus: %zu case(s), %zu analyzer-unsafe, %zu engine-error(s), "
              "%zu false-safe verdict(s)\n",
              n_cases, analyzer_unsafe, engine_errors, false_safe);
  return false_safe == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool lint = false;
  std::optional<uint64_t> seed;
  std::string corpus_dir;
  long seeded = -1;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(arg, "--seed") == 0 && has_value) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(arg, "--write-corpus") == 0 && has_value) {
      corpus_dir = argv[++i];
    } else if (std::strcmp(arg, "--seeded") == 0 && has_value) {
      seeded = std::atol(argv[++i]);
    } else if (arg[0] == '-') {
      Usage(argv[0]);
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  if (!corpus_dir.empty()) {
    return RunWriteCorpus(corpus_dir);
  }
  if (seeded >= 0) {
    return RunSeeded(static_cast<size_t>(seeded));
  }
  if (files.empty()) {
    Usage(argv[0]);
    return 2;
  }
  return lint ? RunLint(files) : RunAnalyze(files, seed);
}
