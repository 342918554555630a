// Pins of the plan proof and the plan key. The analyzer
// (analysis::AnalyzePlan / AnalyzeTraces) and VariantPlan::CacheKey() run at
// every trust boundary, so a faster form of either must keep every byte of
// their output:
//
//   * AnalysisFingerprintTest hashes AnalysisReport::Render() over the
//     committed plan corpus, 2,000 seeded engine sessions, the catalog
//     matrix (below) and hostile coverage lists.
//   * TraceAnalyzerOracleTest compares AnalyzeTraces with the whole-trace,
//     multi-pass analyzer it replaced (ReferenceAnalyzeTraces, kept here),
//     diagnostic for diagnostic, over the same inputs.
//   * PlanKeyFingerprintTest hashes CacheKey() and the wire encoding of every
//     catalog-matrix plan, and CacheKeyDoubleTest holds the key's double
//     rendering to printf's "%.17g" over random bit patterns.
//
// The catalog matrix: every runnable catalog program under each of the four
// strategies, n in {2, 4, 8} and both lockstep modes, each as planned and
// with a detection or a divergence overlay, analyzed at the plan's seed and
// at one request seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/corpus.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/plan_analyzer.h"
#include "src/analysis/trace_analyzer.h"
#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/net/wire.h"
#include "src/nxe/engine.h"
#include "src/nxe/trace.h"
#include "src/syscall/syscall.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

using analysis::AnalysisReport;
using analysis::Diagnostic;

// --- The reference liveness analyzer -----------------------------------------
//
// AnalyzeTraces as it stood before the one-walk form: each rule walks every
// trace again (barrier counts, skeletons built into per-thread vectors, a
// std::map lock graph, the leader's sync syscalls, the detections). Kept
// verbatim as the oracle.
namespace reference {

struct SkeletonEntry {
  nxe::ActionKind kind = nxe::ActionKind::kSyscall;
  const sc::SyscallRecord* record = nullptr;  // kSyscall only
};

const char* SkeletonKindName(nxe::ActionKind kind) {
  switch (kind) {
    case nxe::ActionKind::kSyscall:
      return "sync-relevant syscall";
    case nxe::ActionKind::kBarrier:
      return "barrier";
    case nxe::ActionKind::kLockAcquire:
      return "lock acquisition";
    default:
      return "action";
  }
}

std::vector<SkeletonEntry> BuildSkeleton(const nxe::ThreadTrace& thread) {
  std::vector<SkeletonEntry> out;
  for (const nxe::ThreadAction& action : thread.actions) {
    switch (action.kind) {
      case nxe::ActionKind::kSyscall:
        if (sc::IsSyncRelevant(thread.RecordOf(action).no)) {
          out.push_back({action.kind, &thread.RecordOf(action)});
        }
        break;
      case nxe::ActionKind::kBarrier:
      case nxe::ActionKind::kLockAcquire:
        out.push_back({action.kind, nullptr});
        break;
      default:
        break;
    }
  }
  return out;
}

std::string Loc(size_t variant) { return "variant " + std::to_string(variant); }

std::string Loc(size_t variant, size_t thread) {
  return "variant " + std::to_string(variant) + " thread " + std::to_string(thread);
}

bool AllSyscalls(const std::vector<SkeletonEntry>& entries, size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    if (entries[i].kind != nxe::ActionKind::kSyscall) {
      return false;
    }
  }
  return true;
}

class LockOrderGraph {
 public:
  void AddThread(const nxe::ThreadTrace& thread) {
    held_.clear();
    for (const nxe::ThreadAction& action : thread.actions) {
      if (action.kind == nxe::ActionKind::kLockAcquire) {
        for (const uint32_t held : held_) {
          if (held != thread.SyncIdOf(action)) {
            edges_[held].insert(thread.SyncIdOf(action));
          }
        }
        held_.push_back(thread.SyncIdOf(action));
      } else if (action.kind == nxe::ActionKind::kLockRelease) {
        for (size_t i = held_.size(); i > 0; --i) {
          if (held_[i - 1] == thread.SyncIdOf(action)) {
            held_.erase(held_.begin() + static_cast<long>(i - 1));
            break;
          }
        }
      }
    }
  }

  std::string FindCycle() const {
    std::map<uint32_t, int> state;  // 0 = new, 1 = on stack, 2 = done
    std::vector<uint32_t> path;
    for (const auto& [node, _] : edges_) {
      std::string cycle = Visit(node, &state, &path);
      if (!cycle.empty()) {
        return cycle;
      }
    }
    return "";
  }

 private:
  std::string Visit(uint32_t node, std::map<uint32_t, int>* state,
                    std::vector<uint32_t>* path) const {
    int& mark = (*state)[node];
    if (mark == 1) {
      std::string out;
      size_t start = 0;
      while (start < path->size() && (*path)[start] != node) {
        ++start;
      }
      for (size_t i = start; i < path->size(); ++i) {
        out += "lock " + std::to_string((*path)[i]) + " -> ";
      }
      out += "lock " + std::to_string(node);
      return out;
    }
    if (mark == 2) {
      return "";
    }
    mark = 1;
    path->push_back(node);
    auto it = edges_.find(node);
    if (it != edges_.end()) {
      for (const uint32_t next : it->second) {
        std::string cycle = Visit(next, state, path);
        if (!cycle.empty()) {
          return cycle;
        }
      }
    }
    path->pop_back();
    (*state)[node] = 2;
    return "";
  }

  std::map<uint32_t, std::set<uint32_t>> edges_;
  std::vector<uint32_t> held_;
};

size_t CountBarriers(const nxe::ThreadTrace& thread) {
  size_t n = 0;
  for (const nxe::ThreadAction& action : thread.actions) {
    n += action.kind == nxe::ActionKind::kBarrier ? 1 : 0;
  }
  return n;
}

size_t CountSyncSyscalls(const nxe::VariantTrace& variant) {
  size_t n = 0;
  for (const nxe::ThreadTrace& thread : variant.threads) {
    for (const nxe::ThreadAction& action : thread.actions) {
      if (action.kind == nxe::ActionKind::kSyscall &&
          sc::IsSyncRelevant(thread.RecordOf(action).no)) {
        ++n;
      }
    }
  }
  return n;
}

bool CompareSkeletons(size_t variant, size_t thread, const std::vector<SkeletonEntry>& leader,
                      const std::vector<SkeletonEntry>& follower, bool* divergence_noted,
                      AnalysisReport* report) {
  const size_t common = std::min(leader.size(), follower.size());
  size_t i = 0;
  while (i < common && leader[i].kind == follower[i].kind) {
    ++i;
  }
  if (i < common) {
    report->AddError(
        "liveness/skeleton-mismatch", Loc(variant, thread),
        "sync point " + std::to_string(i) + " is a " + SkeletonKindName(follower[i].kind) +
            " but the leader has a " + SkeletonKindName(leader[i].kind) +
            "; the engine round loop can stall with neither side recognizably parked",
        "regenerate the variant so barriers and lock acquisitions mirror the leader's order");
    return true;
  }
  if (leader.size() != follower.size()) {
    const std::vector<SkeletonEntry>& longer = leader.size() > follower.size() ? leader : follower;
    const char* longer_side = leader.size() > follower.size() ? "leader" : "variant";
    if (AllSyscalls(longer, common, longer.size())) {
      report->AddWarning(
          "liveness/sequence-truncated", Loc(variant, thread),
          "skeleton ends " + std::to_string(longer.size() - common) +
              " sync-relevant syscall(s) short of the " + longer_side +
              "'s; the run will abort with a sequence divergence at sync point " +
              std::to_string(common),
          "pad or trim the trace so follower and leader issue the same syscall sequence");
      if (!*divergence_noted) {
        report->AddNote("analysis/expected-divergence", Loc(variant, thread),
                        "predicted sequence divergence at sync point " + std::to_string(common) +
                            " (one side exits before the other's syscall)");
        *divergence_noted = true;
      }
      return false;
    }
    report->AddError(
        "liveness/skeleton-mismatch", Loc(variant, thread),
        "skeletons differ in length (" + std::to_string(follower.size()) + " vs leader " +
            std::to_string(leader.size()) +
            ") and the unmatched suffix contains barriers or lock acquisitions; the engine "
            "can park at a barrier/lock no peer will ever reach",
        "regenerate the variant so barriers and lock acquisitions mirror the leader's order");
    return true;
  }
  if (!*divergence_noted) {
    for (size_t s = 0; s < common; ++s) {
      if (leader[s].kind != nxe::ActionKind::kSyscall) {
        continue;
      }
      if (!leader[s].record->SameRequest(*follower[s].record)) {
        report->AddNote("analysis/expected-divergence", Loc(variant, thread),
                        "predicted argument divergence at sync point " + std::to_string(s) +
                            ": leader " + sc::RecordToString(*leader[s].record) + " vs " +
                            sc::RecordToString(*follower[s].record));
        *divergence_noted = true;
        break;
      }
    }
  }
  return false;
}

}  // namespace reference

void ReferenceAnalyzeTraces(const nxe::EngineConfig& config,
                            const std::vector<nxe::VariantTrace>& variants,
                            AnalysisReport* report) {
  using namespace reference;  // NOLINT(google-build-using-namespace)
  if (variants.empty()) {
    report->AddError("liveness/no-variants", "", "no variants to run",
                     "plan at least one variant trace");
    return;
  }

  const size_t threads0 = variants[0].threads.size();
  if (variants.size() > nxe::kMaxSessionWidth || threads0 > nxe::kMaxSessionWidth) {
    report->AddError("liveness/session-width", "",
                     std::to_string(variants.size()) + " variant(s) x " +
                         std::to_string(threads0) + " thread(s) is wider than the engine's " +
                         std::to_string(nxe::kMaxSessionWidth) +
                         " variants or threads; the engine rejects it",
                     "split the session into narrower ones");
    return;
  }
  bool shape_ok = true;
  for (size_t v = 1; v < variants.size(); ++v) {
    if (variants[v].threads.size() != threads0) {
      report->AddError("liveness/variant-thread-count", Loc(v),
                       "has " + std::to_string(variants[v].threads.size()) +
                           " thread(s) but the leader has " + std::to_string(threads0) +
                           "; the engine rejects unequal thread counts",
                       "generate every variant from the same threaded template");
      shape_ok = false;
    }
  }

  if (config.mode == nxe::LockstepMode::kSelective && config.ring_capacity == 0) {
    report->AddError("liveness/ring-capacity", "",
                     "selective lockstep with ring_capacity 0; the engine requires >= 1",
                     "set EngineConfig::ring_capacity to at least 1");
  }

  for (size_t v = 0; v < variants.size(); ++v) {
    const auto& threads = variants[v].threads;
    if (threads.size() < 2) {
      continue;
    }
    size_t min_count = CountBarriers(threads[0]);
    size_t max_count = min_count;
    for (size_t t = 1; t < threads.size(); ++t) {
      const size_t n = CountBarriers(threads[t]);
      min_count = std::min(min_count, n);
      max_count = std::max(max_count, n);
    }
    if (min_count != max_count) {
      report->AddError(
          "liveness/barrier-participation", Loc(v),
          "threads cross between " + std::to_string(min_count) + " and " +
              std::to_string(max_count) +
              " barriers; a thread will exit before a barrier the others are waiting at "
              "(engine reports a malformed trace)",
          "every thread of a variant must participate in every barrier");
    }
  }

  if (shape_ok) {
    std::vector<std::vector<SkeletonEntry>> leader_skeletons;
    leader_skeletons.reserve(threads0);
    for (const nxe::ThreadTrace& thread : variants[0].threads) {
      leader_skeletons.push_back(BuildSkeleton(thread));
    }
    for (size_t v = 1; v < variants.size(); ++v) {
      bool divergence_noted = false;
      for (size_t t = 0; t < threads0; ++t) {
        CompareSkeletons(v, t, leader_skeletons[t], BuildSkeleton(variants[v].threads[t]),
                         &divergence_noted, report);
      }
    }
  }

  for (size_t v = 0; v < variants.size(); ++v) {
    LockOrderGraph graph;
    for (const nxe::ThreadTrace& thread : variants[v].threads) {
      graph.AddThread(thread);
    }
    const std::string cycle = graph.FindCycle();
    if (!cycle.empty()) {
      report->AddWarning(
          "liveness/lock-order-cycle", Loc(v),
          "lock-order graph has a cycle (" + cycle +
              "); safe under the engine's serialized replay but a deadlock risk on real "
              "preemptive schedulers",
          "impose a global lock acquisition order across threads");
    }
  }

  if (config.mode == nxe::LockstepMode::kSelective && variants.size() > 1 &&
      config.ring_capacity > 0) {
    const size_t leader_syncs = CountSyncSyscalls(variants[0]);
    if (leader_syncs > 0 && config.ring_capacity >= leader_syncs) {
      report->AddWarning(
          "liveness/ring-backpressure", Loc(0),
          "ring capacity " + std::to_string(config.ring_capacity) + " >= the leader's " +
              std::to_string(leader_syncs) +
              " sync-relevant syscalls: back-pressure never engages, so the detection-lag "
              "window is bounded only by trace length",
          "lower EngineConfig::ring_capacity below the leader's sync-relevant syscall count");
    } else if (leader_syncs > 0) {
      report->AddNote("liveness/ring-backpressure", Loc(0),
                      "leader run-ahead bounded at " + std::to_string(config.ring_capacity) +
                          " of " + std::to_string(leader_syncs) +
                          " sync-relevant syscalls by ring back-pressure");
    }
  }

  for (size_t v = 0; v < variants.size(); ++v) {
    bool noted = false;
    for (size_t t = 0; t < variants[v].threads.size() && !noted; ++t) {
      const nxe::ThreadTrace& thread = variants[v].threads[t];
      for (const nxe::ThreadAction& action : thread.actions) {
        if (action.kind == nxe::ActionKind::kDetect) {
          report->AddNote("analysis/expected-detection", Loc(v, t),
                          "sanitizer check '" + thread.DetectorOf(action) +
                              "' fires here; the engine aborts all variants with a detection "
                              "report");
          noted = true;
          break;
        }
      }
    }
  }
}

// --- Shared inputs -----------------------------------------------------------

class Fnv {
 public:
  void Str(const std::string& s) {
    const uint64_t size = s.size();
    Bytes(&size, sizeof(size));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::vector<workload::BenchmarkSpec> RunnablePrograms() {
  std::vector<workload::BenchmarkSpec> programs = workload::Spec2006();
  programs.insert(programs.end(), workload::Splash2x().begin(), workload::Splash2x().end());
  for (const auto& spec : workload::ParsecSupported()) {
    programs.push_back(spec);
  }
  return programs;
}

constexpr uint64_t kRequestSeed = 4243;  // the catalog matrix's second seed

// Calls `fn` on every catalog-matrix plan: per (program, strategy, n, mode),
// the plan as built, then with a detection overlay on its last variant, then
// with a divergence overlay on its middle one.
void ForEachCatalogPlan(const std::function<void(const api::VariantPlan&)>& fn) {
  const std::vector<workload::BenchmarkSpec> programs = RunnablePrograms();
  ASSERT_EQ(programs.size(), 38u);
  for (const workload::BenchmarkSpec& bench : programs) {
    for (int strategy = 0; strategy < 4; ++strategy) {
      for (size_t n : {size_t{2}, size_t{4}, size_t{8}}) {
        for (nxe::LockstepMode mode : {nxe::LockstepMode::kStrict, nxe::LockstepMode::kSelective}) {
          api::NvxBuilder builder;
          builder.Benchmark(bench).Variants(n).Lockstep(mode);
          if (strategy == 1) {
            builder.DistributeChecks(san::SanitizerId::kASan);
          } else if (strategy == 2) {
            builder.DistributeSanitizers(
                {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
          } else if (strategy == 3) {
            builder.DistributeUbsanSubSanitizers();
          }
          StatusOr<api::VariantPlan> plan = builder.PlanVariants();
          ASSERT_TRUE(plan.ok()) << bench.name << ": " << plan.status().ToString();
          fn(*plan);
          const size_t n_specs = plan->specs.size();
          api::VariantPlan detect = *plan;
          detect.detect_injections.push_back({n_specs - 1, "__asan_report_load8"});
          fn(detect);
          api::VariantPlan diverge = *plan;
          diverge.diverge_injections.push_back({n_specs / 2, "exfiltrated"});
          fn(diverge);
        }
      }
    }
  }
}

std::vector<std::filesystem::path> CorpusPlanFiles() {
  const std::filesystem::path dir =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "corpus" / "plans";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".plan") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

api::VariantPlan DecodePlanFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  StatusOr<api::VariantPlan> plan = net::DecodeVariantPlan(bytes);
  EXPECT_TRUE(plan.ok()) << path << ": " << plan.status().ToString();
  return plan.ok() ? std::move(*plan) : api::VariantPlan{};
}

// --- AnalysisReport::Render() fingerprints -----------------------------------

TEST(AnalysisFingerprintTest, CorpusPlans) {
  const std::vector<std::filesystem::path> files = CorpusPlanFiles();
  ASSERT_EQ(files.size(), 14u);
  Fnv fnv;
  for (const std::filesystem::path& path : files) {
    fnv.Str(analysis::AnalyzePlan(DecodePlanFile(path)).Render());
  }
  EXPECT_EQ(fnv.value(), 0x20E9D2175290FE5CULL);
}

TEST(AnalysisFingerprintTest, SeededCases) {
  Fnv fnv;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    const analysis::RandomCase c = analysis::GenerateCase(seed);
    AnalysisReport report;
    analysis::AnalyzeTraces(c.config, c.variants, &report);
    fnv.Str(report.Render());
  }
  EXPECT_EQ(fnv.value(), 0xBD3AE123DFFC0BC6ULL);
}

TEST(AnalysisFingerprintTest, CatalogMatrix) {
  Fnv fnv;
  size_t plans = 0;
  ForEachCatalogPlan([&](const api::VariantPlan& plan) {
    fnv.Str(analysis::AnalyzePlan(plan).Render());
    fnv.Str(analysis::AnalyzePlan(plan, kRequestSeed).Render());
    ++plans;
  });
  EXPECT_EQ(plans, 38u * 4 * 3 * 2 * 3);
  EXPECT_EQ(fnv.value(), 0xA1B48EFE58721F71ULL);
}

// Coverage inputs a hostile peer could send: builder plans whose check
// subsets or sanitizer groups lose names, repeat them within and across
// lists, move them, or gain near-miss and foreign spellings.
TEST(AnalysisFingerprintTest, HostileCoverage) {
  const std::vector<workload::BenchmarkSpec> programs = RunnablePrograms();
  const std::vector<std::string> group_names = {
      "asan", "msan", "ubsan", "cpi", "safecode", "bounds", "null", "shift", "vla-bound",
      "alignment", "Bounds", "asan ", "", "no-such-sanitizer"};
  std::mt19937_64 rng(0xC0FFEEULL);
  Fnv fnv;
  for (int round = 0; round < 240; ++round) {
    const workload::BenchmarkSpec& bench = programs[rng() % programs.size()];
    const int strategy = 1 + static_cast<int>(rng() % 3);
    api::NvxBuilder builder;
    builder.Benchmark(bench).Variants(2 + rng() % 7);
    if (strategy == 1) {
      builder.DistributeChecks(san::SanitizerId::kASan);
    } else if (strategy == 2) {
      builder.DistributeSanitizers(
          {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
    } else {
      builder.DistributeUbsanSubSanitizers();
    }
    StatusOr<api::VariantPlan> plan = builder.PlanVariants();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::vector<std::vector<std::string>>& lists =
        strategy == 1 ? plan->check_plan->protected_functions : plan->sanitizer_groups;
    const std::string prefix = bench.name + "::fn";
    const std::string count = std::to_string(std::max<size_t>(1, bench.n_functions));
    const std::vector<std::string> function_names = {
        prefix + "0", prefix + "07", prefix + "+7", prefix + "-1", prefix + " 7",
        prefix + count, prefix + "99999999999999999999999", prefix, "mcf::fn3", bench.name,
        prefix + "1::fn1", prefix + "00"};
    const std::vector<std::string>& strangers = strategy == 1 ? function_names : group_names;
    const int edits = static_cast<int>(rng() % 7);
    for (int e = 0; e < edits; ++e) {
      std::vector<std::string>& list = lists[rng() % lists.size()];
      const std::vector<std::string>& other = lists[rng() % lists.size()];
      switch (rng() % 6) {
        case 0:  // drop a name
          if (!list.empty()) {
            list.erase(list.begin() + static_cast<std::ptrdiff_t>(rng() % list.size()));
          }
          break;
        case 1:  // repeat a name, maybe from another list
          if (!other.empty()) {
            list.push_back(other[rng() % other.size()]);
          }
          break;
        case 2:  // rotate the list
          if (list.size() > 1) {
            const auto middle = list.begin() + static_cast<std::ptrdiff_t>(rng() % list.size());
            std::rotate(list.begin(), middle, list.end());
          }
          break;
        case 3:
        case 4:  // a near-miss or foreign name
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(rng() % (list.size() + 1)),
                      strangers[rng() % strangers.size()]);
          break;
        default:  // empty the list
          list.clear();
          break;
      }
    }
    fnv.Str(analysis::AnalyzePlan(*plan).Render());
  }
  EXPECT_EQ(fnv.value(), 0x0E8AD7E5EBCE5038ULL);
}

// --- AnalyzeTraces against the reference, diagnostic for diagnostic -----------

void ExpectSameDiagnostics(const nxe::EngineConfig& config,
                           const std::vector<nxe::VariantTrace>& variants,
                           const std::string& what) {
  AnalysisReport actual;
  analysis::AnalyzeTraces(config, variants, &actual);
  AnalysisReport expected;
  ReferenceAnalyzeTraces(config, variants, &expected);
  ASSERT_EQ(actual.diagnostics().size(), expected.diagnostics().size())
      << what << "\nactual:\n"
      << actual.Render() << "expected:\n"
      << expected.Render();
  for (size_t i = 0; i < actual.diagnostics().size(); ++i) {
    const Diagnostic& a = actual.diagnostics()[i];
    const Diagnostic& e = expected.diagnostics()[i];
    ASSERT_EQ(a.rule, e.rule) << what << " #" << i;
    ASSERT_EQ(a.severity, e.severity) << what << " #" << i;
    ASSERT_EQ(a.location, e.location) << what << " #" << i;
    ASSERT_EQ(a.message, e.message) << what << " #" << i;
    ASSERT_EQ(a.fix_hint, e.fix_hint) << what << " #" << i;
  }
}

// The traces AnalyzePlan proves for `plan` at `seed`, when it builds any.
void ExpectSameDiagnosticsForPlan(const api::VariantPlan& plan, uint64_t seed,
                                  const std::string& what) {
  std::vector<size_t> members(plan.specs.size());
  std::iota(members.begin(), members.end(), size_t{0});
  std::vector<nxe::VariantTrace> traces;
  if (!api::BuildPlanTraces(plan, members, seed, &traces).ok()) {
    return;
  }
  nxe::EngineConfig config = plan.engine_config;
  config.contention_variants = plan.n_variants();
  ExpectSameDiagnostics(config, traces, what);
}

TEST(TraceAnalyzerOracleTest, MatchesReferenceOnSeededCases) {
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    const analysis::RandomCase c = analysis::GenerateCase(seed);
    ExpectSameDiagnostics(c.config, c.variants,
                          "seed " + std::to_string(seed) + " (" + c.label + ")");
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(TraceAnalyzerOracleTest, MatchesReferenceOnCorpusPlans) {
  for (const std::filesystem::path& path : CorpusPlanFiles()) {
    const api::VariantPlan plan = DecodePlanFile(path);
    const bool one_target = plan.benchmark.has_value() != plan.server.has_value();
    if (!one_target || plan.specs.empty() ||
        analysis::AnalyzePlan(plan).HasRule("plan/trace-shape")) {
      continue;  // AnalyzePlan builds no traces for these
    }
    ExpectSameDiagnosticsForPlan(plan, plan.seed, path.filename().string());
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(TraceAnalyzerOracleTest, MatchesReferenceOnCatalogMatrix) {
  ForEachCatalogPlan([&](const api::VariantPlan& plan) {
    if (HasFatalFailure()) {
      return;
    }
    const std::string what = plan.CacheKey();
    ExpectSameDiagnosticsForPlan(plan, plan.seed, what);
    ExpectSameDiagnosticsForPlan(plan, kRequestSeed, what);
  });
}

// Hand-built shapes the catalog never produces: lock-order cycles through
// nested and out-of-order releases, duplicate edges, self-relocks, a
// follower whose skeleton differs in a barrier, a longer follower, and
// detections in later threads.
TEST(TraceAnalyzerOracleTest, MatchesReferenceOnHandBuiltShapes) {
  std::mt19937_64 rng(0x5EEDULL);
  for (int round = 0; round < 400; ++round) {
    const size_t n_variants = 1 + rng() % 4;
    const size_t n_threads = 1 + rng() % 3;
    std::vector<nxe::VariantTrace> variants(n_variants);
    for (size_t v = 0; v < n_variants; ++v) {
      variants[v].name = "v" + std::to_string(v);
      variants[v].threads.resize(n_threads);
      for (nxe::ThreadTrace& thread : variants[v].threads) {
        const size_t len = rng() % 24;
        for (size_t i = 0; i < len; ++i) {
          switch (rng() % 8) {
            case 0:
              thread.Append(nxe::ThreadAction::Compute(1.0));
              break;
            case 1:
            case 2:
              thread.AppendSyscall(analysis::RandomRecord(rng, rng() % 2 == 0));
              break;
            case 3:
              thread.AppendSyscall(analysis::IgnoredRecord(rng));
              break;
            case 4:
              thread.Append(nxe::ThreadAction::Lock(static_cast<uint32_t>(rng() % 4)));
              break;
            case 5:
              thread.Append(nxe::ThreadAction::Unlock(static_cast<uint32_t>(rng() % 4)));
              break;
            case 6:
              thread.Append(nxe::ThreadAction::Barrier(static_cast<uint32_t>(rng() % 2)));
              break;
            default:
              if (rng() % 8 == 0) {
                thread.AppendDetect("check" + std::to_string(rng() % 3));
              }
              break;
          }
        }
        thread.Append(nxe::ThreadAction::Exit());
      }
    }
    nxe::EngineConfig config;
    config.mode = rng() % 2 == 0 ? nxe::LockstepMode::kStrict : nxe::LockstepMode::kSelective;
    config.ring_capacity = rng() % 6;
    ExpectSameDiagnostics(config, variants, "round " + std::to_string(round));
    if (HasFatalFailure()) {
      return;
    }
  }
}

// --- CacheKey() and wire-encoding fingerprints --------------------------------

TEST(PlanKeyFingerprintTest, CatalogMatrix) {
  Fnv keys;
  Fnv bytes;
  ForEachCatalogPlan([&](const api::VariantPlan& plan) {
    keys.Str(plan.CacheKey());
    bytes.Str(net::EncodeVariantPlan(plan));
  });
  EXPECT_EQ(keys.value(), 0xE3C32F27CBD3D33DULL);
  EXPECT_EQ(bytes.value(), 0xA410DA850E214B87ULL);
}

std::string Printf17g(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

TEST(CacheKeyDoubleTest, MatchesPrintfOverRandomBitPatterns) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::signaling_NaN(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon(),
                                1e300,
                                -1e300,
                                1e16,
                                1e17,
                                123456789012345678.0,
                                0.1,
                                1.0 / 3.0,
                                1 << 22,
                                1e-7,
                                2e-7,
                                0.0035};
  for (uint64_t payload : {1ULL, 0x5ULL, 0x7FFFFULL, 0xFFFFFFFFFFFFFULL}) {
    for (uint64_t sign : {0ULL, 1ULL << 63}) {
      const uint64_t bits = sign | 0x7FF0000000000000ULL | payload;
      double nan = 0.0;
      std::memcpy(&nan, &bits, sizeof(nan));
      values.push_back(nan);
    }
  }
  for (uint64_t mantissa : {1ULL, 0x8000000000000ULL, 0xFFFFFFFFFFFFFULL, 0x123456789ULL}) {
    double denormal = 0.0;
    std::memcpy(&denormal, &mantissa, sizeof(denormal));
    values.push_back(denormal);
    values.push_back(-denormal);
  }
  std::mt19937_64 rng(0xD0B1EULL);
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  for (int i = 0; i < 100'000; ++i) {  // the magnitudes configs carry
    values.push_back(std::ldexp(static_cast<double>(rng() >> 11), -static_cast<int>(rng() % 80)));
  }
  size_t mismatches = 0;
  for (const double value : values) {
    const std::string expected = Printf17g(value);
    const std::string actual = api::CacheKeyDouble(value);
    if (actual != expected && mismatches++ < 8) {
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      ADD_FAILURE() << std::hex << "bits 0x" << bits << ": " << actual << " vs printf's "
                    << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace bunshin
