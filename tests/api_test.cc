// Tests for the unified session API: builder validation, backend equivalence
// (both backends report the same NvxOutcome for a shared detection scenario),
// observer-hook invocation order, and RunReport invariants.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/api/nvx.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using api::NvxBuilder;
using api::NvxOutcome;
using api::Observer;
using api::RunReport;

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

TEST(NvxBuilderTest, NoTargetFails) {
  auto session = NvxBuilder().Variants(2).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, MultipleTargetsFail) {
  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder()
                     .Module(*module)
                     .Benchmark(workload::Spec2006()[0])
                     .DistributeChecks(san::SanitizerId::kASan)
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, ZeroVariantsFail) {
  auto session = NvxBuilder().Benchmark(workload::Spec2006()[0]).Variants(0).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, ModuleWithoutStrategyFails) {
  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder().Module(*module).Variants(2).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, CheckDistributionNeedsProfilingWorkload) {
  auto module = testutil::BuildBufferProgram();
  auto session =
      NvxBuilder().Module(*module).Variants(2).DistributeChecks(san::SanitizerId::kASan).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, EmptySanitizerListFails) {
  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder().Module(*module).DistributeSanitizers({}).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, ServerRejectsDistribution) {
  workload::ServerSpec server;
  auto session =
      NvxBuilder().Server(server).Variants(2).DistributeChecks(san::SanitizerId::kASan).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, InjectDetectionRejectedOnModuleTarget) {
  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder()
                     .Module(*module)
                     .Variants(2)
                     .DistributeSanitizers({san::SanitizerId::kASan})
                     .InjectDetection(0, "__asan_report_load")
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, InjectDetectionVariantOutOfRangeFails) {
  auto session = NvxBuilder()
                     .Benchmark(workload::Spec2006()[0])
                     .Variants(2)
                     .InjectDetection(5, "__asan_report_load")
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, InjectDivergenceRejectedOnModuleTarget) {
  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder()
                     .Module(*module)
                     .Variants(2)
                     .DistributeSanitizers({san::SanitizerId::kASan})
                     .InjectDivergence(0, "payload")
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxBuilderTest, InjectDivergenceVariantOutOfRangeFails) {
  auto session = NvxBuilder()
                     .Benchmark(workload::Spec2006()[0])
                     .Variants(2)
                     .InjectDivergence(3, "payload")
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(NvxSessionTest, InjectDivergenceReportsDivergedVariant) {
  auto session = NvxBuilder()
                     .Benchmark(workload::Spec2006()[0])
                     .Variants(3)
                     .InjectDivergence(2, "leaked-secret")
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, NvxOutcome::kDiverged);
  ASSERT_TRUE(report->divergence.has_value());
  EXPECT_EQ(report->divergence->variant, 2u);
  EXPECT_NE(report->divergence->expected, report->divergence->actual);
  EXPECT_TRUE(report->aborted_all);
}

// ---------------------------------------------------------------------------
// Backend equivalence: the same detection scenario — an out-of-bounds access
// caught by a distributed ASan check — must surface as the same NvxOutcome
// from both backends.
// ---------------------------------------------------------------------------

TEST(NvxSessionTest, BothBackendsReportDetectedForSharedScenario) {
  // IR backend: the buffer program with ASan checks split across 2 variants;
  // index 4 lands in the redzone one past the 4-entry buffer.
  auto module = testutil::BuildBufferProgram();
  auto ir_session = NvxBuilder()
                        .Module(*module)
                        .Variants(2)
                        .DistributeChecks(san::SanitizerId::kASan)
                        .ProfilingWorkload({{"main", {0}}, {"main", {3}}})
                        .Build();
  ASSERT_TRUE(ir_session.ok()) << ir_session.status().ToString();
  EXPECT_STREQ(ir_session->backend_name(), "ir");
  auto ir_report = ir_session->Run(api::Call("main", {4}));
  ASSERT_TRUE(ir_report.ok()) << ir_report.status().ToString();

  // Trace backend: the same overflow modeled at trace level — the variant
  // carrying the check fires its ASan report mid-run.
  auto trace_session = NvxBuilder()
                           .Benchmark(workload::Spec2006()[0])
                           .Variants(2)
                           .InjectDetection(1, "__asan_report_load")
                           .Build();
  ASSERT_TRUE(trace_session.ok()) << trace_session.status().ToString();
  EXPECT_STREQ(trace_session->backend_name(), "trace");
  auto trace_report = trace_session->Run();
  ASSERT_TRUE(trace_report.ok()) << trace_report.status().ToString();

  // Same unified outcome from both backends.
  EXPECT_EQ(ir_report->outcome, NvxOutcome::kDetected);
  EXPECT_EQ(trace_report->outcome, NvxOutcome::kDetected);
  ASSERT_TRUE(ir_report->detection.has_value());
  ASSERT_TRUE(trace_report->detection.has_value());
  EXPECT_FALSE(ir_report->detection->detector.empty());
  EXPECT_EQ(trace_report->detection->detector, "__asan_report_load");
  EXPECT_EQ(trace_report->detection->variant, 1u);
}

TEST(NvxSessionTest, BothBackendsReportOkOnBenignRun) {
  auto module = testutil::BuildBufferProgram();
  auto ir_session = NvxBuilder()
                        .Module(*module)
                        .Variants(2)
                        .DistributeChecks(san::SanitizerId::kASan)
                        .ProfilingWorkload({{"main", {0}}, {"main", {3}}})
                        .Build();
  ASSERT_TRUE(ir_session.ok());
  auto ir_report = ir_session->Run(api::Call("main", {2}));
  ASSERT_TRUE(ir_report.ok());
  EXPECT_EQ(ir_report->outcome, NvxOutcome::kOk);
  ASSERT_TRUE(ir_report->return_value.has_value());
  EXPECT_EQ(*ir_report->return_value, 20);

  auto trace_session = NvxBuilder().Benchmark(workload::Spec2006()[0]).Variants(3).Build();
  ASSERT_TRUE(trace_session.ok());
  auto trace_report = trace_session->Run();
  ASSERT_TRUE(trace_report.ok());
  EXPECT_EQ(trace_report->outcome, NvxOutcome::kOk);
  EXPECT_GT(trace_report->synced_syscalls, 0u);
  auto overhead = trace_report->Overhead();
  ASSERT_TRUE(overhead.ok()) << overhead.status().ToString();
  EXPECT_GE(*overhead, 0.0);
}

TEST(NvxSessionTest, TraceBackendDistributesChecks) {
  const auto& spec = workload::Spec2006()[0];
  auto session = NvxBuilder()
                     .Benchmark(spec)
                     .Variants(3)
                     .DistributeChecks(san::SanitizerId::kASan)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_NE(session->check_plan(), nullptr);
  EXPECT_EQ(session->check_plan()->n_variants, 3u);
  auto report = session->Run();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->variant_compute_scale.size(), 3u);
  // Every variant carries less than the whole-program slowdown, but more
  // than nothing (its share of the distributed checks + the residual).
  for (double scale : report->variant_compute_scale) {
    EXPECT_GT(scale, 1.0);
    EXPECT_LT(scale - 1.0, spec.overheads.asan);
  }
}

TEST(NvxSessionTest, SanitizerDistributionDropsUnsupportedMsan) {
  // Find a benchmark that cannot run MSan (the paper's gcc case).
  const workload::BenchmarkSpec* no_msan = nullptr;
  for (const auto& spec : workload::Spec2006()) {
    if (!spec.overheads.msan_supported) {
      no_msan = &spec;
      break;
    }
  }
  ASSERT_NE(no_msan, nullptr);
  NvxBuilder builder;
  builder.Benchmark(*no_msan).Variants(3).DistributeSanitizers(
      {san::SanitizerId::kASan, san::SanitizerId::kUBSan, san::SanitizerId::kMSan});
  auto session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->n_variants(), 2u);  // MSan dropped, two variants remain
  auto plan = builder.PlanVariants();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->sanitizer_groups.size(), 2u);
  for (const auto& group : plan->sanitizer_groups) {
    for (const auto& name : group) {
      EXPECT_NE(name, "msan");
    }
  }
}

// ---------------------------------------------------------------------------
// Observer hooks
// ---------------------------------------------------------------------------

TEST(NvxSessionTest, ObserverOrderFinishesThenIncident) {
  std::vector<std::string> events;
  Observer observer;
  observer.on_variant_finish = [&](size_t variant, double finish_time) {
    EXPECT_GE(finish_time, 0.0);
    events.push_back("finish" + std::to_string(variant));
  };
  observer.on_incident = [&](const RunReport& report) {
    EXPECT_EQ(report.outcome, NvxOutcome::kDetected);
    events.push_back("incident");
  };

  auto session = NvxBuilder()
                     .Benchmark(workload::Spec2006()[0])
                     .Variants(3)
                     .InjectDetection(2, "__asan_report_store")
                     .SetObserver(observer)
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = session->Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, NvxOutcome::kDetected);

  // All variant finishes in index order, then exactly one incident.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], "finish0");
  EXPECT_EQ(events[1], "finish1");
  EXPECT_EQ(events[2], "finish2");
  EXPECT_EQ(events[3], "incident");
}

TEST(NvxSessionTest, ObserverNoIncidentOnBenignRun) {
  size_t finishes = 0;
  bool incident = false;
  Observer observer;
  observer.on_variant_finish = [&](size_t, double) { ++finishes; };
  observer.on_incident = [&](const RunReport&) { incident = true; };

  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder()
                     .Module(*module)
                     .Variants(2)
                     .DistributeChecks(san::SanitizerId::kASan)
                     .ProfilingWorkload({{"main", {0}}, {"main", {3}}})
                     .SetObserver(observer)
                     .Build();
  ASSERT_TRUE(session.ok());
  auto report = session->Run(api::Call("main", {1}));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, NvxOutcome::kOk);
  EXPECT_EQ(finishes, 2u);
  EXPECT_FALSE(incident);
}

// ---------------------------------------------------------------------------
// RunReport invariants
// ---------------------------------------------------------------------------

TEST(RunReportTest, OverheadErrorsWithoutBaseline) {
  RunReport report;
  report.total_time = 100.0;
  auto overhead = report.Overhead();
  ASSERT_FALSE(overhead.ok());
  EXPECT_EQ(overhead.status().code(), StatusCode::kFailedPrecondition);

  report.baseline_time = 0.0;  // non-positive baseline is equally invalid
  EXPECT_FALSE(report.Overhead().ok());

  report.baseline_time = 80.0;
  auto valid = report.Overhead();
  ASSERT_TRUE(valid.ok());
  EXPECT_NEAR(*valid, 0.25, 1e-9);
}

TEST(RunReportTest, OutcomeNamesStable) {
  EXPECT_STREQ(api::NvxOutcomeName(NvxOutcome::kOk), "ok");
  EXPECT_STREQ(api::NvxOutcomeName(NvxOutcome::kDetected), "detected");
  EXPECT_STREQ(api::NvxOutcomeName(NvxOutcome::kDiverged), "diverged");
}

TEST(NvxSessionTest, WorkloadSeedOverrideChangesTiming) {
  auto session = NvxBuilder().Benchmark(workload::Spec2006()[0]).Variants(2).Seed(1).Build();
  ASSERT_TRUE(session.ok());
  auto a = session->Run();
  api::RunRequest reseeded;
  reseeded.workload_seed = 999;
  auto b = session->Run(reseeded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->outcome, NvxOutcome::kOk);
  EXPECT_EQ(b->outcome, NvxOutcome::kOk);
  EXPECT_NE(a->total_time, b->total_time);
}

}  // namespace
}  // namespace bunshin
