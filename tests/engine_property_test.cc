// Parameterized property sweep over the engine: every supported benchmark x
// lockstep mode x variant count must complete without false positives, cost
// at least the baseline, and report consistent telemetry.
//
// Also the scheduler-equivalence suite: Engine::Run (event-driven) must
// produce bit-identical SyncReports — every field, including the
// floating-point clocks and gap averages — to Engine::RunReference (the
// retained round-based scheduler) on randomized traces sweeping thread
// counts, lockstep modes, ring capacities, and injected
// detections/divergences/malformed shapes.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <tuple>

#include "src/analysis/corpus.h"
#include "src/nxe/engine.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

class EngineSweepTest
    : public ::testing::TestWithParam<std::tuple<std::string, nxe::LockstepMode, size_t>> {};

TEST_P(EngineSweepTest, CompletesWithSaneReport) {
  const auto& [bench_name, mode, n_variants] = GetParam();
  const auto* spec = workload::FindBenchmark(bench_name);
  ASSERT_NE(spec, nullptr);

  nxe::EngineConfig config;
  config.mode = mode;
  config.cache_sensitivity = spec->cache_sensitivity;
  nxe::Engine engine(config);

  auto variants = workload::BuildIdenticalVariants(*spec, n_variants, 99);
  auto baseline_or = engine.RunBaseline(variants[0]);
  ASSERT_TRUE(baseline_or.ok()) << baseline_or.status().ToString();
  const double baseline = *baseline_or;
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // No false positives on identical binaries (§5.1).
  EXPECT_TRUE(report->completed);
  EXPECT_FALSE(report->divergence.has_value());
  EXPECT_FALSE(report->detection.has_value());

  // Timing sanity: synchronized execution is never faster than solo.
  EXPECT_GE(report->total_time, baseline);
  ASSERT_EQ(report->variant_finish_time.size(), n_variants);
  for (double t : report->variant_finish_time) {
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, report->total_time + 1e-9);
  }

  // Telemetry: every sync-relevant syscall of one variant was synchronized.
  size_t expected_syscalls = 0;
  for (const auto& thread : variants[0].threads) {
    for (const auto& action : thread.actions) {
      if (action.kind == nxe::ActionKind::kSyscall &&
          sc::IsSyncRelevant(thread.RecordOf(action).no)) {
        ++expected_syscalls;
      }
    }
  }
  EXPECT_EQ(report->synced_syscalls, expected_syscalls);

  // Overhead stays within a loose global sanity bound (< 100% for any
  // configuration in this sweep).
  auto overhead = report->OverheadVs(baseline);
  ASSERT_TRUE(overhead.ok()) << overhead.status().ToString();
  EXPECT_LT(*overhead, 1.0);

  // Selective mode: the attack window is bounded by the ring.
  if (mode == nxe::LockstepMode::kSelective && n_variants > 1) {
    EXPECT_LE(report->max_syscall_gap, config.ring_capacity);
  }
}

std::vector<std::string> SweepBenchmarks() {
  return {"perlbench", "bzip2", "lbm", "xalancbmk", "barnes", "ocean(cp)", "dedup",
          "streamcluster"};
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineSweepTest,
    ::testing::Combine(::testing::ValuesIn(SweepBenchmarks()),
                       ::testing::Values(nxe::LockstepMode::kStrict,
                                         nxe::LockstepMode::kSelective),
                       ::testing::Values<size_t>(2, 3, 4)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_" + nxe::LockstepModeName(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<2>(info.param)) + "v";
    });

// --- Scheduler equivalence: Run() ≡ RunReference(), bit for bit -------------

// Bitwise double equality: the contract is "same arithmetic in the same
// order", not "close enough", so no epsilon anywhere.
bool BitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

::testing::AssertionResult ReportsBitIdentical(const StatusOr<nxe::SyncReport>& got,
                                               const StatusOr<nxe::SyncReport>& want) {
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << "ok mismatch: Run=" << (got.ok() ? "report" : got.status().ToString())
           << " RunReference=" << (want.ok() ? "report" : want.status().ToString());
  }
  if (!got.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return ::testing::AssertionFailure() << "status mismatch: Run=" << got.status().ToString()
                                           << " RunReference=" << want.status().ToString();
    }
    return ::testing::AssertionSuccess();
  }
  const nxe::SyncReport& a = *got;
  const nxe::SyncReport& b = *want;
  if (a.completed != b.completed || a.aborted_all != b.aborted_all) {
    return ::testing::AssertionFailure() << "outcome flags differ";
  }
  if (a.divergence.has_value() != b.divergence.has_value()) {
    return ::testing::AssertionFailure() << "divergence presence differs";
  }
  if (a.divergence.has_value()) {
    if (a.divergence->variant != b.divergence->variant ||
        a.divergence->thread != b.divergence->thread ||
        a.divergence->sync_index != b.divergence->sync_index ||
        a.divergence->expected != b.divergence->expected ||
        a.divergence->actual != b.divergence->actual) {
      return ::testing::AssertionFailure()
             << "divergence differs: Run={v=" << a.divergence->variant
             << ",t=" << a.divergence->thread << ",k=" << a.divergence->sync_index
             << "} RunReference={v=" << b.divergence->variant << ",t=" << b.divergence->thread
             << ",k=" << b.divergence->sync_index << "}";
    }
  }
  if (a.detection.has_value() != b.detection.has_value()) {
    return ::testing::AssertionFailure() << "detection presence differs";
  }
  if (a.detection.has_value() &&
      (a.detection->variant != b.detection->variant ||
       a.detection->thread != b.detection->thread ||
       a.detection->detector != b.detection->detector)) {
    return ::testing::AssertionFailure()
           << "detection differs: Run={v=" << a.detection->variant << ",t=" << a.detection->thread
           << "} RunReference={v=" << b.detection->variant << ",t=" << b.detection->thread << "}";
  }
  if (a.variant_finish_time.size() != b.variant_finish_time.size()) {
    return ::testing::AssertionFailure() << "variant_finish_time size differs";
  }
  for (size_t v = 0; v < a.variant_finish_time.size(); ++v) {
    if (!BitEq(a.variant_finish_time[v], b.variant_finish_time[v])) {
      return ::testing::AssertionFailure()
             << "variant_finish_time[" << v << "] differs: " << a.variant_finish_time[v] << " vs "
             << b.variant_finish_time[v];
    }
  }
  if (!BitEq(a.total_time, b.total_time)) {
    return ::testing::AssertionFailure()
           << "total_time differs: " << a.total_time << " vs " << b.total_time;
  }
  if (a.synced_syscalls != b.synced_syscalls || a.ignored_syscalls != b.ignored_syscalls ||
      a.lockstep_barriers != b.lockstep_barriers || a.lock_acquisitions != b.lock_acquisitions) {
    return ::testing::AssertionFailure()
           << "counters differ: synced " << a.synced_syscalls << "/" << b.synced_syscalls
           << " ignored " << a.ignored_syscalls << "/" << b.ignored_syscalls << " lockstep "
           << a.lockstep_barriers << "/" << b.lockstep_barriers << " locks "
           << a.lock_acquisitions << "/" << b.lock_acquisitions;
  }
  if (a.max_syscall_gap != b.max_syscall_gap || !BitEq(a.avg_syscall_gap, b.avg_syscall_gap)) {
    return ::testing::AssertionFailure()
           << "gap metric differs: max " << a.max_syscall_gap << "/" << b.max_syscall_gap
           << " avg " << a.avg_syscall_gap << "/" << b.avg_syscall_gap;
  }
  return ::testing::AssertionSuccess();
}

// The seeded random-session generator lives in src/analysis/corpus.{h,cc}
// (shared with the analyzer oracle suite and tools/nvx_analyze --seeded);
// this suite consumes it through these aliases.
using analysis::GenerateCase;
using analysis::RandomCase;
using analysis::RandomRecord;

TEST(EngineEquivalenceTest, RandomizedTracesMatchReference) {
  size_t clean = 0, detections = 0, divergences = 0, errors = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    RandomCase c = GenerateCase(seed);
    nxe::Engine engine(c.config);
    auto got = engine.Run(c.variants);
    auto want = engine.RunReference(c.variants);
    ASSERT_TRUE(ReportsBitIdentical(got, want))
        << "seed " << seed << " (" << c.label << ", " << c.variants.size() << " variants, "
        << c.variants[0].threads.size() << " threads, "
        << nxe::LockstepModeName(c.config.mode) << ", ring " << c.config.ring_capacity << ")";
    if (!got.ok()) {
      ++errors;
    } else if (got->detection.has_value()) {
      ++detections;
    } else if (got->divergence.has_value()) {
      ++divergences;
    } else {
      ++clean;
    }
  }
  // The generator must actually exercise every outcome class, or the sweep
  // proves nothing.
  EXPECT_GT(clean, 50u);
  EXPECT_GT(detections, 20u);
  EXPECT_GT(divergences, 20u);
  EXPECT_GT(errors, 5u);
}

TEST(EngineEquivalenceTest, PersistentWorkspaceMatchesReference) {
  // The warm-run path (docs/warm_path.md) reuses one EngineWorkspace across
  // runs. Threading a single workspace through all 400 heterogeneous cases —
  // every size transition, outcome class, and scheduler path back to back —
  // is the strongest stale-state probe: any buffer not fully reinitialized
  // between runs breaks bit-identity against the stateless reference.
  nxe::EngineWorkspace workspace;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    RandomCase c = GenerateCase(seed);
    nxe::Engine engine(c.config);
    auto got = engine.Run(c.variants, &workspace);
    auto want = engine.RunReference(c.variants);
    ASSERT_TRUE(ReportsBitIdentical(got, want))
        << "seed " << seed << " (" << c.label << ", " << c.variants.size() << " variants, "
        << c.variants[0].threads.size() << " threads, "
        << nxe::LockstepModeName(c.config.mode) << ", ring " << c.config.ring_capacity << ")";
  }
}

TEST(EngineEquivalenceTest, WorkloadTracesMatchReference) {
  for (const char* name : {"perlbench", "xalancbmk", "barnes", "dedup", "radiosity"}) {
    const auto* spec = workload::FindBenchmark(name);
    ASSERT_NE(spec, nullptr) << name;
    for (const auto mode : {nxe::LockstepMode::kStrict, nxe::LockstepMode::kSelective}) {
      for (const size_t n : {1u, 2u, 4u, 8u}) {
        nxe::EngineConfig config;
        config.mode = mode;
        config.cache_sensitivity = spec->cache_sensitivity;
        nxe::Engine engine(config);
        auto variants = workload::BuildIdenticalVariants(*spec, n, 1234);
        EXPECT_TRUE(ReportsBitIdentical(engine.Run(variants), engine.RunReference(variants)))
            << name << " " << nxe::LockstepModeName(mode) << " n=" << n;
      }
    }
  }
}

TEST(EngineEquivalenceTest, TinyRingBackPressureMatchesReference) {
  // The ring-full path (leader blocked on the slowest follower's fetch) and
  // the mixed lockstep/ring stream are where an event-driven scheduler can
  // drift; pin them at every tiny capacity.
  nxe::ThreadTrace thread;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 30; ++i) {
    thread.Append(nxe::ThreadAction::Compute(5.0 + static_cast<double>(rng() % 10)));
    thread.AppendSyscall(RandomRecord(rng, i % 5 == 4));
  }
  thread.Append(nxe::ThreadAction::Exit());
  for (const size_t ring : {1u, 2u, 3u, 5u}) {
    for (const size_t n : {2u, 3u, 6u}) {
      std::vector<nxe::VariantTrace> variants(n);
      for (size_t v = 0; v < n; ++v) {
        variants[v].name = "ring-v" + std::to_string(v);
        variants[v].compute_scale = 1.0 + 0.7 * static_cast<double>(v);
        variants[v].threads = {thread};
      }
      nxe::EngineConfig config;
      config.mode = nxe::LockstepMode::kSelective;
      config.ring_capacity = ring;
      nxe::Engine engine(config);
      EXPECT_TRUE(ReportsBitIdentical(engine.Run(variants), engine.RunReference(variants)))
          << "ring " << ring << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace bunshin
