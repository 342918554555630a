// Tests for the static plan & trace analyzer (src/analysis/) and its three
// trust boundaries. The load-bearing property is *soundness of the safe
// verdicts*: over the seeded adversarial corpus, an analyzer "deadlock-free"
// verdict must never precede an engine Status error, and a "full coverage"
// verdict must imply injected detections are caught. False alarms cost a
// re-plan; false-safe verdicts are asserted to be zero. The suite also
// proves the wire boundary: every hostile plan mutant is rejected by
// net::ExecutorServer with a structured diagnostic before it reaches the
// executor's plan cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/corpus.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/ir_analyzer.h"
#include "src/analysis/plan_analyzer.h"
#include "src/analysis/trace_analyzer.h"
#include "src/api/nvx.h"
#include "src/core/bunshin.h"
#include "src/ir/verifier.h"
#include "src/net/executor.h"
#include "src/net/wire.h"
#include "src/nxe/engine.h"
#include "src/nxe/trace.h"
#include "src/sanitizer/sanitizer.h"
#include "src/syscall/syscall.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using analysis::AnalysisReport;
using analysis::AnalyzePlan;
using analysis::AnalyzeTraces;
using analysis::GenerateCase;
using analysis::RandomCase;
using api::DistributionStrategy;
using api::NvxBuilder;
using api::NvxOutcome;
using api::VariantPlan;

// ---------------------------------------------------------------------------
// Diagnostics: the report container and its verdicts.
// ---------------------------------------------------------------------------

TEST(DiagnosticsTest, CountsVerdictsAndSummary) {
  AnalysisReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.well_formed());
  EXPECT_TRUE(report.coverage_complete());
  EXPECT_TRUE(report.deadlock_free());
  EXPECT_TRUE(report.ToStatus("ctx").ok());

  report.AddError("coverage/gap", "subset 1", "gap", "cover it");
  report.AddWarning("liveness/lock-order-cycle", "variant 0", "cycle", "order locks");
  report.AddNote("analysis/expected-detection", "variant 2", "will fire");

  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.notes(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("coverage/gap"));
  EXPECT_TRUE(report.HasRule("analysis/expected-detection"));
  EXPECT_FALSE(report.HasRule("coverage"));  // exact match, not prefix
  EXPECT_TRUE(report.HasErrorWithPrefix("coverage/"));
  EXPECT_FALSE(report.HasErrorWithPrefix("liveness/"));  // warning, not error

  EXPECT_TRUE(report.well_formed());         // no plan/* error
  EXPECT_FALSE(report.coverage_complete());  // coverage/gap is an error
  EXPECT_TRUE(report.deadlock_free());       // lock cycle is only a warning

  const Status status = report.ToStatus("plan analysis");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("plan analysis"), std::string::npos);
  EXPECT_NE(status.message().find("coverage/gap"), std::string::npos);
  EXPECT_NE(report.Render().find("(fix: cover it)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace analyzer rules, each cross-checked against a real engine run.
// ---------------------------------------------------------------------------

sc::SyscallRecord SyncRecord(int64_t arg0) {
  sc::SyscallRecord rec;
  rec.no = sc::Sysno::kRead;
  rec.args = {arg0, 64, 0, 0, 0, 0};
  return rec;
}

// `n` structurally identical variants: per thread, a compute/syscall mix
// with one barrier episode when `with_barrier`.
std::vector<nxe::VariantTrace> IdenticalVariants(size_t n, size_t threads, bool with_barrier) {
  std::vector<nxe::VariantTrace> variants(n);
  for (size_t v = 0; v < n; ++v) {
    variants[v].name = "v" + std::to_string(v);
    variants[v].threads.resize(threads);
    for (size_t t = 0; t < threads; ++t) {
      nxe::ThreadTrace& thread = variants[v].threads[t];
      thread.Append(nxe::ThreadAction::Compute(5.0));
      thread.AppendSyscall(SyncRecord(1));
      if (with_barrier) {
        thread.Append(nxe::ThreadAction::Barrier(0));
      }
      thread.AppendSyscall(SyncRecord(2));
      thread.Append(nxe::ThreadAction::Exit());
    }
  }
  return variants;
}

TEST(TraceAnalyzerTest, CleanSessionProvedDeadlockFreeAndEngineAgrees) {
  const nxe::EngineConfig config;
  const auto variants = IdenticalVariants(3, 2, /*with_barrier=*/true);
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_TRUE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->completed);
}

TEST(TraceAnalyzerTest, FlagsEmptySessionLikeTheEngine) {
  const nxe::EngineConfig config;
  AnalysisReport report;
  AnalyzeTraces(config, {}, &report);
  EXPECT_TRUE(report.HasRule("liveness/no-variants"));
  EXPECT_FALSE(report.deadlock_free());
  EXPECT_FALSE(nxe::Engine(config).Run({}).ok());
}

TEST(TraceAnalyzerTest, FlagsUnequalThreadCountsLikeTheEngine) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 2, false);
  variants[1].threads.pop_back();
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/variant-thread-count"));
  EXPECT_FALSE(report.deadlock_free());
  EXPECT_FALSE(nxe::Engine(config).Run(variants).ok());
}

TEST(TraceAnalyzerTest, FlagsOverWideSessionLikeTheEngine) {
  const nxe::EngineConfig config;
  for (const auto& [n, threads] : {std::pair<size_t, size_t>{2, 0x10000}, {0x10000, 1}}) {
    const auto variants = IdenticalVariants(n, threads, false);
    AnalysisReport report;
    AnalyzeTraces(config, variants, &report);
    EXPECT_TRUE(report.HasRule("liveness/session-width")) << n << " x " << threads;
    EXPECT_FALSE(report.deadlock_free());
    const auto run = nxe::Engine(config).Run(variants);
    ASSERT_FALSE(run.ok()) << n << " x " << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TraceAnalyzerTest, FlagsSelectiveModeWithoutRingLikeTheEngine) {
  nxe::EngineConfig config;
  config.mode = nxe::LockstepMode::kSelective;
  config.ring_capacity = 0;
  const auto variants = IdenticalVariants(2, 1, false);
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/ring-capacity"));
  EXPECT_FALSE(report.deadlock_free());
  EXPECT_FALSE(nxe::Engine(config).Run(variants).ok());
}

TEST(TraceAnalyzerTest, FlagsSkippedBarrierAsTheMalformedTraceItIs) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 2, /*with_barrier=*/true);
  // Variant 1 thread 1 exits before the barrier its sibling waits at.
  nxe::ThreadTrace& thread = variants[1].threads[1];
  thread.actions.clear();
  thread.Append(nxe::ThreadAction::Compute(5.0));
  thread.AppendSyscall(SyncRecord(1));
  thread.Append(nxe::ThreadAction::Exit());
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/barrier-participation")) << report.Render();
  EXPECT_FALSE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("malformed trace"), std::string::npos);
}

TEST(TraceAnalyzerTest, FlagsSkeletonMismatchConservatively) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 1, false);
  // The follower acquires a lock the leader never does: its replay waits for
  // a leader acquisition that never comes.
  nxe::ThreadTrace& thread = variants[1].threads[0];
  thread.Insert(1, nxe::ThreadAction::Lock(0));
  thread.Insert(2, nxe::ThreadAction::Unlock(0));
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/skeleton-mismatch")) << report.Render();
  EXPECT_FALSE(report.deadlock_free());
}

TEST(TraceAnalyzerTest, TruncatedFollowerIsAWarningAndRunsToDivergence) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 1, false);
  // Drop the follower's trailing syscall: an S-only suffix, which the engine
  // reports as a sequence divergence — an incident, not an error.
  auto& actions = variants[1].threads[0].actions;
  actions.erase(actions.end() - 2);  // the SyncRecord(2) before Exit
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/sequence-truncated")) << report.Render();
  EXPECT_TRUE(report.HasRule("analysis/expected-divergence"));
  EXPECT_TRUE(report.ok());  // warning + note, no error
  EXPECT_TRUE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // An incident, exactly as predicted. (The engine attributes the incident
  // to whichever side it caught waiting, so only its presence is asserted.)
  EXPECT_TRUE(run->divergence.has_value());
}

TEST(TraceAnalyzerTest, LockOrderCycleIsADeploymentWarningNotAnError) {
  const nxe::EngineConfig config;
  nxe::VariantTrace trace;
  trace.name = "cycle";
  trace.threads.resize(2);
  // Thread 0 holds lock 0 while taking lock 1; thread 1 the reverse. The
  // engine's serialized replay survives this; a preemptive scheduler can't.
  trace.threads[0].actions = {nxe::ThreadAction::Lock(0), nxe::ThreadAction::Lock(1),
                              nxe::ThreadAction::Unlock(1), nxe::ThreadAction::Unlock(0),
                              nxe::ThreadAction::Exit()};
  trace.threads[1].actions = {nxe::ThreadAction::Lock(1), nxe::ThreadAction::Lock(0),
                              nxe::ThreadAction::Unlock(0), nxe::ThreadAction::Unlock(1),
                              nxe::ThreadAction::Exit()};
  const std::vector<nxe::VariantTrace> variants = {trace};
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/lock-order-cycle")) << report.Render();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.deadlock_free());
  EXPECT_TRUE(nxe::Engine(config).Run(variants).ok());
}

TEST(TraceAnalyzerTest, PredictsInjectedDetections) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 1, false);
  variants[1].threads[0].InsertDetect(1, "__asan_report_store");
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("analysis/expected-detection"));
  EXPECT_TRUE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->detection.has_value());
  EXPECT_EQ(run->detection->variant, 1u);
}

// ---------------------------------------------------------------------------
// The oracle: 400 seeded adversarial sessions, zero false-safe verdicts.
// ---------------------------------------------------------------------------

TEST(AnalyzerOracleTest, NoFalseSafeVerdictOverSeededCorpus) {
  size_t engine_errors = 0;
  size_t analyzer_unsafe = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    const RandomCase c = GenerateCase(seed);
    AnalysisReport report;
    AnalyzeTraces(c.config, c.variants, &report);
    if (!report.deadlock_free()) {
      ++analyzer_unsafe;
    }
    const auto run = nxe::Engine(c.config).Run(c.variants);
    if (!run.ok()) {
      ++engine_errors;
      // THE soundness property: the analyzer may be conservative, but a
      // "deadlock-free" verdict followed by an engine error is a false-safe
      // verdict — the one thing the static gate must never produce.
      ASSERT_FALSE(report.deadlock_free())
          << "seed " << seed << " (" << c.label << "): analyzer said deadlock-free, engine said "
          << run.status().ToString() << "\n"
          << report.Render();
    }
  }
  // The corpus actually exercises both sides of the verdict.
  EXPECT_GT(engine_errors, 0u);
  EXPECT_GT(analyzer_unsafe, 0u);
  EXPECT_GE(analyzer_unsafe, engine_errors);
}

// ---------------------------------------------------------------------------
// Plan analyzer: builder plans are clean; every mutation is caught.
// ---------------------------------------------------------------------------

VariantPlan PlanOrDie(NvxBuilder& builder) {
  auto plan = builder.PlanVariants();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

TEST(PlanAnalyzerTest, BuilderPlansAnalyzeCleanAcrossStrategies) {
  const workload::BenchmarkSpec& bench = *workload::FindBenchmark("mcf");
  std::vector<std::pair<std::string, VariantPlan>> plans;
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(3).Seed(5);
    plans.emplace_back("none", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(4).DistributeChecks(san::SanitizerId::kASan).Seed(5);
    plans.emplace_back("check", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(3).Seed(5).DistributeSanitizers(
        {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
    plans.emplace_back("sanitizer", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(4).DistributeUbsanSubSanitizers().Seed(5);
    plans.emplace_back("ubsan-sub", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Server(workload::ServerSpec{}).Variants(2).Seed(5);
    plans.emplace_back("server", PlanOrDie(b));
  }
  for (const auto& [label, plan] : plans) {
    // The builder attached its own report at plan time...
    ASSERT_NE(plan.analysis, nullptr) << label;
    EXPECT_TRUE(plan.analysis->ok()) << label << ": " << plan.analysis->Render();
    // ...and a fresh analysis agrees on every verdict.
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.ok()) << label << ": " << report.Render();
    EXPECT_TRUE(report.well_formed()) << label;
    EXPECT_TRUE(report.coverage_complete()) << label;
    EXPECT_TRUE(report.deadlock_free()) << label;
  }
}

VariantPlan CheckPlanFixture() {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("mcf"))
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(5);
  return PlanOrDie(b);
}

TEST(PlanAnalyzerTest, FlagsCoverageGap) {
  VariantPlan plan = CheckPlanFixture();
  for (auto& subset : plan.check_plan->protected_functions) {
    if (!subset.empty()) {
      subset.pop_back();
      break;
    }
  }
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_TRUE(report.HasRule("coverage/gap")) << report.Render();
  EXPECT_FALSE(report.coverage_complete());
  EXPECT_TRUE(report.well_formed());  // the defect is coverage, not shape
}

TEST(PlanAnalyzerTest, FlagsCoverageOverlapAndUnknownFunction) {
  VariantPlan plan = CheckPlanFixture();
  auto& subsets = plan.check_plan->protected_functions;
  ASSERT_GE(subsets.size(), 2u);
  ASSERT_FALSE(subsets[0].empty());
  subsets[1].push_back(subsets[0].front());
  subsets[0].push_back("__no_such_function");
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_TRUE(report.HasRule("coverage/overlap")) << report.Render();
  EXPECT_TRUE(report.HasRule("coverage/unknown-function"));
  EXPECT_FALSE(report.coverage_complete());
}

// The coverage diagnostics' exact text: gaps in name order (mcf::fn10 before
// mcf::fn2) cut after eight names, an overlap naming the first owner, and
// unknown names in plan order.
TEST(PlanAnalyzerTest, CoverageDiagnosticsTextIsPinned) {
  VariantPlan plan = CheckPlanFixture();
  auto& subsets = plan.check_plan->protected_functions;
  ASSERT_EQ(subsets.size(), 4u);
  const std::vector<std::string> dropped = {"mcf::fn2", "mcf::fn3", "mcf::fn4",  "mcf::fn5",
                                            "mcf::fn6", "mcf::fn7", "mcf::fn8",  "mcf::fn9",
                                            "mcf::fn10", "mcf::fn11"};
  size_t n_dropped = 0;
  for (auto& subset : subsets) {
    n_dropped += std::erase_if(subset, [&](const std::string& name) {
      return std::find(dropped.begin(), dropped.end(), name) != dropped.end();
    });
  }
  ASSERT_EQ(n_dropped, dropped.size());
  ASSERT_EQ(subsets[0], std::vector<std::string>{"mcf::fn0"});
  subsets[2].push_back("mcf::fn0");
  subsets[1].push_back("mcf::no_such_fn");
  EXPECT_EQ(AnalyzePlan(plan).Render(),
            "error coverage/overlap [subset 2]: function 'mcf::fn0' is already protected by "
            "subset 0; overlapping checks double-pay overhead and break the disjointness "
            "claim (fix: assign every function to exactly one variant)\n"
            "error coverage/unknown-function: subset(s) protect function(s) absent from the "
            "profiled set: mcf::no_such_fn (subset 1) (fix: partition exactly the profiled "
            "functions)\n"
            "error coverage/gap: profiled function(s) protected by no variant: mcf::fn10, "
            "mcf::fn11, mcf::fn2, mcf::fn3, mcf::fn4, mcf::fn5, mcf::fn6, mcf::fn7 ... and 2 "
            "more; an attack on them is invisible to every variant (fix: the subsets must "
            "cover the full profiled function set)\n");
}

TEST(PlanAnalyzerTest, UnknownFunctionListIsCutAfterEightNames) {
  VariantPlan plan = CheckPlanFixture();
  for (size_t i = 0; i < 10; ++i) {
    plan.check_plan->protected_functions[i % 4].push_back("x" + std::to_string(i));
  }
  EXPECT_EQ(AnalyzePlan(plan).Render(),
            "error coverage/unknown-function: subset(s) protect function(s) absent from the "
            "profiled set: x0 (subset 0), x4 (subset 0), x8 (subset 0), x1 (subset 1), x5 "
            "(subset 1), x9 (subset 1), x2 (subset 2), x6 (subset 2) ... and 2 more (fix: "
            "partition exactly the profiled functions)\n");
}

TEST(PlanAnalyzerTest, FlagsConflictingSanitizerGroup) {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("bzip2")).Variants(3).Seed(5).DistributeSanitizers(
      {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
  VariantPlan plan = PlanOrDie(b);
  // ASan and MSan claim clashing low-memory layouts (§3.1); force them into
  // one variant and duplicate ubsan across two.
  plan.sanitizer_groups.clear();
  plan.sanitizer_groups.push_back({"asan", "msan", "ubsan"});
  plan.sanitizer_groups.push_back({"ubsan"});
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_TRUE(report.HasRule("coverage/group-conflict")) << report.Render();
  EXPECT_TRUE(report.HasRule("coverage/group-duplicate"));
  EXPECT_FALSE(report.coverage_complete());
}

TEST(PlanAnalyzerTest, LongDuplicateGroupCostsOneDiagnostic) {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("bzip2")).Variants(3).Seed(5).DistributeSanitizers(
      {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
  VariantPlan plan = PlanOrDie(b);
  // A wire plan's group lists are as long as its frame allows; repeats must
  // cost neither one diagnostic each nor a pairwise conflict check.
  plan.sanitizer_groups.front().assign(20000, "ubsan");
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_TRUE(report.HasRule("coverage/group-duplicate")) << report.Render();
  EXPECT_EQ(std::count_if(report.diagnostics().begin(), report.diagnostics().end(),
                          [](const auto& d) { return d.rule == "coverage/group-duplicate"; }),
            1);
}

TEST(PlanAnalyzerTest, FlagsStructuralDefects) {
  {
    VariantPlan plan = CheckPlanFixture();
    plan.server = workload::ServerSpec{};  // dual target + server distribution
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/dual-target")) << report.Render();
    EXPECT_TRUE(report.HasRule("plan/server-distribution"));
    EXPECT_FALSE(report.well_formed());
  }
  {
    VariantPlan plan = CheckPlanFixture();
    plan.detect_injections.push_back({99, "__asan_report_load"});
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/injection-range")) << report.Render();
    EXPECT_FALSE(report.well_formed());
  }
  {
    VariantPlan plan = CheckPlanFixture();
    plan.specs.back().compute_scale = 0.0;
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/compute-scale")) << report.Render();
    EXPECT_FALSE(report.well_formed());
  }
  {
    VariantPlan plan = CheckPlanFixture();
    plan.engine_config.mode = nxe::LockstepMode::kSelective;
    plan.engine_config.ring_capacity = 0;
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("liveness/ring-capacity")) << report.Render();
    EXPECT_FALSE(report.deadlock_free());
  }
  {
    // An unbounded trace shape is rejected before any trace is built, so
    // the liveness rules (which would build them) never run.
    VariantPlan plan = CheckPlanFixture();
    plan.benchmark->n_syscalls = uint64_t{1} << 40;
    plan.engine_config.mode = nxe::LockstepMode::kSelective;
    plan.engine_config.ring_capacity = 0;
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/trace-shape")) << report.Render();
    EXPECT_FALSE(report.well_formed());
    EXPECT_FALSE(report.HasRule("liveness/ring-capacity"));
  }
  {
    // Check distribution synthesizes one profile entry per function, so an
    // unbounded count is rejected before the coverage rules synthesize it.
    VariantPlan plan = CheckPlanFixture();
    plan.benchmark->n_functions = size_t{1} << 40;
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/trace-shape")) << report.Render();
    EXPECT_FALSE(report.well_formed());
    EXPECT_FALSE(report.HasRule("coverage/gap"));
  }
  {
    // A repeated sanitizer is rejected before the pairwise enforceability
    // check, which is quadratic in the list.
    VariantPlan plan = CheckPlanFixture();
    plan.specs.back().sanitizers.assign(20000, san::SanitizerId::kASan);
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/trace-shape")) << report.Render();
    EXPECT_FALSE(report.well_formed());
  }
}

TEST(PlanAnalyzerTest, BuilderRefusesDeadlockShapedPlanAtPlanTime) {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("bzip2"))
      .Variants(2)
      .Lockstep(nxe::LockstepMode::kSelective)
      .RingCapacity(0)
      .Seed(5);
  const auto plan = b.PlanVariants();
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("liveness/ring-capacity"), std::string::npos)
      << plan.status().ToString();
  EXPECT_FALSE(b.Build().ok());
}

TEST(PlanAnalyzerTest, FullCoverageVerdictImpliesInjectedDetectionCaught) {
  // The acceptance cross-check at plan level: a kCheck plan whose analysis
  // says coverage-complete must catch a spliced mid-run detection.
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("mcf"))
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .InjectDetection(2, "__asan_report_store")
      .Seed(5);
  auto session = b.Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto plan = b.PlanVariants();
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->analysis, nullptr);
  EXPECT_TRUE(plan->analysis->coverage_complete()) << plan->analysis->Render();
  EXPECT_TRUE(plan->analysis->HasRule("analysis/expected-detection"));
  const auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, NvxOutcome::kDetected);
  ASSERT_TRUE(report->detection.has_value());
  EXPECT_EQ(report->detection->variant, 2u);
  EXPECT_EQ(report->detection->detector, "__asan_report_store");
}

// ---------------------------------------------------------------------------
// IR cross-check: sliced variants vs an independent re-instrumentation.
// ---------------------------------------------------------------------------

TEST(IrAnalyzerTest, SlicedVariantsPassTheCrossCheck) {
  // End to end through the builder: BuildIrBackend runs VerifyModule plus
  // AnalyzeCheckDistribution on the sliced system; a clean Build() means the
  // slicer's output matched the independent re-instrumentation.
  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder()
                     .Module(*module)
                     .Variants(2)
                     .DistributeChecks(san::SanitizerId::kASan)
                     .ProfilingWorkload({{"main", {0}}, {"main", {3}}})
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Run(api::Call("main", {2}));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, NvxOutcome::kOk);
}

TEST(IrAnalyzerTest, FlagsUnslicedVariantAsRetentionDefect) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto system = core::IrNvxSystem::CreateCheckDistributed(
      *baseline, san::SanitizerId::kASan, {{"main", {10}}, {"main", {3}}},
      core::Options{.n_variants = 2});
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  // Genuine sliced variants pass.
  {
    AnalysisReport report;
    std::vector<const ir::Module*> variants;
    for (size_t v = 0; v < system->n_variants(); ++v) {
      variants.push_back(&system->variant(v));
    }
    analysis::AnalyzeCheckDistribution(*baseline, san::SanitizerId::kASan,
                                       system->check_plan(), variants, &report);
    EXPECT_TRUE(report.ok()) << report.Render();
  }
  // The *uninstrumented baseline* passed off as every variant: protected
  // functions carry none of their checks and no metadata maintenance.
  {
    AnalysisReport report;
    std::vector<const ir::Module*> variants(system->n_variants(), baseline.get());
    analysis::AnalyzeCheckDistribution(*baseline, san::SanitizerId::kASan,
                                       system->check_plan(), variants, &report);
    EXPECT_TRUE(report.HasRule("ir/check-retention")) << report.Render();
    EXPECT_TRUE(report.HasRule("ir/metadata-maintenance"));
    EXPECT_FALSE(report.coverage_complete());
  }
  // Wrong arity: one module for two subsets.
  {
    AnalysisReport report;
    analysis::AnalyzeCheckDistribution(*baseline, san::SanitizerId::kASan,
                                       system->check_plan(), {baseline.get()}, &report);
    EXPECT_TRUE(report.HasRule("ir/plan-arity"));
  }
}

TEST(IrAnalyzerTest, BuilderVerifyGateRejectsMalformedModule) {
  // Satellite: ir::VerifyModule wired into the builder's IR path. A block
  // without a terminator must fail Build() before instrumentation runs.
  ir::Module module;
  ir::Function* fn = module.AddFunction("main", 0);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  b.Add(ir::Value::Const(1), ir::Value::Const(2));  // no terminator
  ASSERT_FALSE(ir::VerifyModule(module).ok());

  auto session = NvxBuilder()
                     .Module(module)
                     .Variants(2)
                     .DistributeChecks(san::SanitizerId::kASan)
                     .ProfilingWorkload({{"main", {0}}})
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("IR verification"), std::string::npos)
      << session.status().ToString();
}

// ---------------------------------------------------------------------------
// The wire trust boundary: hostile plans die before the executor plan cache.
// ---------------------------------------------------------------------------

net::RunReplyMsg RoundTrip(net::ExecutorServer& server, const VariantPlan& plan) {
  auto socket = server.ConnectLoopback();
  EXPECT_TRUE(socket.ok());
  net::RunRequestMsg msg;
  msg.cache_key = plan.CacheKey();
  msg.n_variants = plan.n_variants();
  msg.members.resize(plan.n_variants());
  for (size_t i = 0; i < plan.n_variants(); ++i) {
    msg.members[i] = i;
  }
  msg.owns_baseline = true;
  msg.plan_bytes = net::EncodeVariantPlan(plan);
  net::Frame frame;
  frame.type = net::MessageType::kRunRequest;
  frame.request_id = 1;
  frame.payload = net::EncodeRunRequestMsg(msg);
  EXPECT_TRUE(net::WriteFrame(**socket, frame).ok());
  auto reply = net::ReadFrame(**socket);
  EXPECT_TRUE(reply.ok());
  auto decoded = net::DecodeRunReplyMsg(reply->payload, plan.n_variants());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(*decoded);
}

TEST(ExecutorAnalysisTest, RejectsEveryHostilePlanBeforeThePlanCache) {
  const VariantPlan base = CheckPlanFixture();

  std::vector<std::pair<std::string, VariantPlan>> mutants;
  {
    VariantPlan m = base;
    for (auto& subset : m.check_plan->protected_functions) {
      if (!subset.empty()) {
        subset.pop_back();
        break;
      }
    }
    mutants.emplace_back("coverage-gap", std::move(m));
  }
  {
    VariantPlan m = base;
    m.check_plan->protected_functions[1].push_back(
        m.check_plan->protected_functions[0].front());
    mutants.emplace_back("coverage-overlap", std::move(m));
  }
  {
    VariantPlan m = base;
    m.detect_injections.push_back({99, "__asan_report_load"});
    mutants.emplace_back("injection-range", std::move(m));
  }
  {
    VariantPlan m = base;
    m.engine_config.mode = nxe::LockstepMode::kSelective;
    m.engine_config.ring_capacity = 0;
    mutants.emplace_back("ring-zero", std::move(m));
  }
  {
    VariantPlan m = base;
    m.specs.front().compute_scale = -1.0;
    mutants.emplace_back("compute-scale", std::move(m));
  }
  // Hostile trace shapes: each count sizes the buffers of the traces the
  // analyzer's liveness pass would build, so an unbounded one would exhaust
  // memory or run for seconds.
  const auto shape_mutant = [&mutants](const char* label, const VariantPlan& plan,
                                       const auto& mutate) {
    VariantPlan m = plan;
    mutate(m);
    mutants.emplace_back(label, std::move(m));
  };
  shape_mutant("threads-2^40", base, [](VariantPlan& m) { m.benchmark->threads = 1ull << 40; });
  shape_mutant("threads-2^20", base, [](VariantPlan& m) { m.benchmark->threads = 1ull << 20; });
  shape_mutant("syscalls-2^40", base,
               [](VariantPlan& m) { m.benchmark->n_syscalls = 1ull << 40; });
  shape_mutant("barriers-2^40", base, [](VariantPlan& m) { m.benchmark->barriers = 1ull << 40; });
  shape_mutant("locks-nan", base, [](VariantPlan& m) {
    m.benchmark->locks_per_kilo = std::numeric_limits<double>::quiet_NaN();
  });
  shape_mutant("locks-negative", base, [](VariantPlan& m) { m.benchmark->locks_per_kilo = -1.0; });
  shape_mutant("compute-infinite", base, [](VariantPlan& m) {
    m.benchmark->total_compute = std::numeric_limits<double>::infinity();
  });
  shape_mutant("specs-65536", base, [](VariantPlan& m) {
    m.specs.resize(0x10000, m.specs.front());
    m.labels.resize(0x10000, m.labels.front());
  });
  shape_mutant("functions-2^40", base,
               [](VariantPlan& m) { m.benchmark->n_functions = size_t{1} << 40; });
  shape_mutant("sanitizers-20000", base, [](VariantPlan& m) {
    m.specs.back().sanitizers.assign(20000, san::SanitizerId::kASan);
  });
  NvxBuilder server_builder;
  server_builder.Server(workload::ServerSpec{}).Variants(2).Seed(5);
  shape_mutant("requests-2^40", PlanOrDie(server_builder),
               [](VariantPlan& m) { m.server->requests = 1ull << 40; });

  net::ExecutorServer server;
  uint64_t expected_rejects = 0;
  for (const auto& [label, mutant] : mutants) {
    const net::RunReplyMsg reply = RoundTrip(server, mutant);
    EXPECT_FALSE(reply.run_status.ok()) << label;
    EXPECT_NE(reply.run_status.message().find("rejected by static analysis"), std::string::npos)
        << label << ": " << reply.run_status.ToString();
    ++expected_rejects;
    EXPECT_EQ(server.stats().analysis_rejects, expected_rejects) << label;
    // A rejected plan never occupies a cache slot.
    EXPECT_EQ(server.plan_cache_stats().entries, 0u) << label;
  }

  // The untampered plan sails through the same raw-wire path and is cached.
  const net::RunReplyMsg reply = RoundTrip(server, base);
  EXPECT_TRUE(reply.run_status.ok()) << reply.run_status.ToString();
  ASSERT_TRUE(reply.partial.has_value());
  EXPECT_EQ(server.stats().analysis_rejects, expected_rejects);
  EXPECT_EQ(server.plan_cache_stats().entries, 1u);
}

TEST(ExecutorAnalysisTest, RemoteSessionsStillRunCleanPlans) {
  // Regression guard for the analyzer gate: a normal remote session (the
  // dispatcher encodes the builder's analyzed plan) must be unaffected.
  auto server = std::make_shared<net::ExecutorServer>();
  NvxBuilder builder;
  builder.Benchmark(*workload::FindBenchmark("bzip2")).Variants(3).Seed(41);
  auto session = builder.Remote({net::LoopbackEndpoint(server, "solo")}).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Run().ok());
  EXPECT_EQ(server->stats().analysis_rejects, 0u);
  EXPECT_EQ(server->plan_cache_stats().entries, 1u);
}

}  // namespace
}  // namespace bunshin
