// End-to-end tests of the public IrNvxSystem pipeline: instrument -> profile
// -> plan -> de-instrument -> N-version run.
#include <gtest/gtest.h>

#include "src/core/bunshin.h"
#include "src/sanitizer/asan_pass.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using core::IrNvxSystem;
using core::NvxOutcome;
using core::Options;

std::vector<profile::WorkloadRun> BenignWorkload() {
  return {{"main", {10}}, {"main", {25}}, {"main", {3}}};
}

TEST(IrNvxTest, CheckDistributedSystemBuilds) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto system = IrNvxSystem::CreateCheckDistributed(*baseline, san::SanitizerId::kASan,
                                                    BenignWorkload(), Options{.n_variants = 2});
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ(system->n_variants(), 2u);
  // The plan must cover all four functions disjointly.
  size_t total = 0;
  for (const auto& fns : system->check_plan().protected_functions) {
    total += fns.size();
  }
  EXPECT_EQ(total, 4u);
}

TEST(IrNvxTest, BenignRunsAgree) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto system = IrNvxSystem::CreateCheckDistributed(*baseline, san::SanitizerId::kASan,
                                                    BenignWorkload(), Options{.n_variants = 3});
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  for (int n : {1, 5, 17, 40}) {
    const auto result = system->RunDetailed("main", {n}).result;
    EXPECT_EQ(result.outcome, NvxOutcome::kOk) << "n=" << n << " " << result.divergence_detail;
  }
}

TEST(IrNvxTest, BenignResultMatchesBaseline) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  ir::Interpreter interp(baseline.get());
  auto system = IrNvxSystem::CreateCheckDistributed(*baseline, san::SanitizerId::kASan,
                                                    BenignWorkload(), Options{.n_variants = 2});
  ASSERT_TRUE(system.ok());
  for (int n : {2, 9, 31}) {
    const auto result = system->RunDetailed("main", {n}).result;
    ASSERT_EQ(result.outcome, NvxOutcome::kOk);
    EXPECT_EQ(result.return_value, interp.Run("main", {n}).return_value);
  }
}

TEST(IrNvxTest, AttackDetectedByExactlyTheVariantHoldingTheCheck) {
  // Buffer overflow in main: whichever variant keeps main's checks reports.
  auto baseline = testutil::BuildBufferProgram();
  auto system = IrNvxSystem::CreateCheckDistributed(
      *baseline, san::SanitizerId::kASan, {{"main", {0}}, {"main", {3}}},
      Options{.n_variants = 2});
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  const auto result = system->RunDetailed("main", {4}).result;  // one past the end
  ASSERT_EQ(result.outcome, NvxOutcome::kDetected);
  EXPECT_EQ(result.detector, "__asan_report_load");

  // Cross-check against the plan: the detecting variant is the one whose
  // protected set contains "main".
  const auto& plan = system->check_plan();
  bool found = false;
  for (size_t v = 0; v < plan.protected_functions.size(); ++v) {
    for (const auto& fn : plan.protected_functions[v]) {
      if (fn == "main") {
        EXPECT_EQ(result.detecting_variant, v);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(IrNvxTest, SecurityEquivalentToFullInstrumentation) {
  // Property: for every input, the distributed system detects iff the fully
  // instrumented program detects (no security loss, no false alarms).
  auto baseline = testutil::BuildBufferProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());
  ir::Interpreter full(instrumented.get());

  auto system = IrNvxSystem::CreateCheckDistributed(
      *baseline, san::SanitizerId::kASan, {{"main", {1}}}, Options{.n_variants = 3});
  ASSERT_TRUE(system.ok());

  for (int idx = -2; idx <= 5; ++idx) {
    const auto full_result = full.Run("main", {idx});
    const auto nvx_result = system->RunDetailed("main", {idx}).result;
    if (full_result.outcome == ir::Outcome::kDetected) {
      EXPECT_EQ(nvx_result.outcome, NvxOutcome::kDetected) << "idx=" << idx;
    } else {
      EXPECT_EQ(nvx_result.outcome, NvxOutcome::kOk) << "idx=" << idx;
    }
  }
}

TEST(IrNvxTest, SanitizerDistributionSeparatesConflicts) {
  auto baseline = testutil::BuildBufferProgram();
  auto system = IrNvxSystem::CreateSanitizerDistributed(
      *baseline, {san::SanitizerId::kASan, san::SanitizerId::kMSan}, Options{.n_variants = 2});
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_EQ(system->sanitizer_groups().size(), 2u);
  // One group has asan, the other msan.
  const auto& groups = system->sanitizer_groups();
  EXPECT_NE(groups[0], groups[1]);

  // Benign run is clean even though the sanitizers would conflict if fused.
  const auto result = system->RunDetailed("main", {2}).result;
  EXPECT_EQ(result.outcome, NvxOutcome::kOk) << result.divergence_detail;

  // Overflow: the ASan-carrying variant detects.
  const auto attack = system->RunDetailed("main", {4}).result;
  EXPECT_EQ(attack.outcome, NvxOutcome::kDetected);
}

TEST(IrNvxTest, UbsanSubSanitizerDistribution) {
  auto baseline = testutil::BuildArithProgram();
  auto system = IrNvxSystem::CreateUbsanDistributed(*baseline, Options{.n_variants = 2});
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  // Benign input: agreement.
  EXPECT_EQ(system->RunDetailed("main", {20, 3}).result.outcome, NvxOutcome::kOk);
  // Division by zero: the variant carrying integer-divide-by-zero detects
  // (in the other variant the div traps, which would also stop the attack,
  // but detection wins because the check fires before the UB executes).
  const auto result = system->RunDetailed("main", {10, 0}).result;
  EXPECT_EQ(result.outcome, NvxOutcome::kDetected);
  EXPECT_EQ(result.detector, "__ubsan_report_integer_divide_by_zero");
}

TEST(IrNvxTest, SingleVariantDegeneratesToFullInstrumentation) {
  auto baseline = testutil::BuildBufferProgram();
  auto system = IrNvxSystem::CreateCheckDistributed(
      *baseline, san::SanitizerId::kASan, {{"main", {1}}}, Options{.n_variants = 1});
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->RunDetailed("main", {2}).result.outcome, NvxOutcome::kOk);
  EXPECT_EQ(system->RunDetailed("main", {4}).result.outcome, NvxOutcome::kDetected);
}

TEST(IrNvxTest, RejectsProfilingWorkloadThatCrashes) {
  auto baseline = testutil::BuildBufferProgram();
  // Workload triggering the overflow cannot be used for profiling: the
  // instrumented run aborts.
  auto system = IrNvxSystem::CreateCheckDistributed(
      *baseline, san::SanitizerId::kASan, {{"main", {4}}}, Options{.n_variants = 2});
  EXPECT_FALSE(system.ok());
}

}  // namespace
}  // namespace bunshin
