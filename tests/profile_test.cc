// Tests for the overhead profiler (IR path and synthesized path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/profile/profiler.h"
#include "src/sanitizer/asan_pass.h"
#include "src/workload/funcprofile.h"
#include "src/workload/workload.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

// The largest fraction of the baseline that one function contributes.
double HottestFunctionShare(const profile::OverheadProfile& profile) {
  if (profile.baseline_total == 0) {
    return 0.0;
  }
  uint64_t hottest = 0;
  for (const auto& fn : profile.functions) {
    hottest = std::max(hottest, fn.baseline_cost);
  }
  return static_cast<double>(hottest) / static_cast<double>(profile.baseline_total);
}

TEST(ProfilerTest, MeasuresPerFunctionOverhead) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());

  auto profile = profile::ProfileCheckDistribution(
      *baseline, *instrumented, {{"main", {30}}, {"main", {10}}});
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  EXPECT_GT(testutil::TotalOverhead(*profile), 0.0);
  EXPECT_EQ(profile->functions.size(), 4u);  // hot, warm, cold, main

  // The loop-heavy, memory-heavy function must dominate the deltas.
  uint64_t hot_delta = 0;
  uint64_t cold_delta = 0;
  for (const auto& fn : profile->functions) {
    if (fn.function == "hot") {
      hot_delta = fn.Delta();
    }
    if (fn.function == "cold") {
      cold_delta = fn.Delta();
    }
  }
  EXPECT_GT(hot_delta, cold_delta);
}

TEST(ProfilerTest, WeightsAlignWithFunctions) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());
  auto profile =
      profile::ProfileCheckDistribution(*baseline, *instrumented, {{"main", {20}}});
  ASSERT_TRUE(profile.ok());
  const auto weights = profile->DistributableWeights();
  ASSERT_EQ(weights.size(), profile->functions.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(weights[i], static_cast<double>(profile->functions[i].Delta()));
  }
}

TEST(ProfilerTest, RejectsEmptyWorkload) {
  auto module = testutil::BuildMultiFunctionProgram();
  EXPECT_FALSE(profile::ProfileCheckDistribution(*module, *module, {}).ok());
}

TEST(ProfilerTest, RejectsCrashingWorkload) {
  auto baseline = testutil::BuildArithProgram();
  auto profile =
      profile::ProfileCheckDistribution(*baseline, *baseline, {{"main", {1, 0}}});  // div 0
  EXPECT_FALSE(profile.ok());
}

TEST(SynthesizedProfileTest, MatchesCalibratedTotals) {
  for (const auto& bench : workload::Spec2006()) {
    const auto profile =
        workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 1);
    EXPECT_EQ(profile.functions.size(), bench.n_functions) << bench.name;
    // Total overhead ~= calibrated whole-program number (rounding slack).
    EXPECT_NEAR(testutil::TotalOverhead(profile), bench.overheads.asan, 0.05) << bench.name;
    // Hottest share is honored.
    EXPECT_NEAR(HottestFunctionShare(profile), bench.hottest_share, 0.03) << bench.name;
  }
}

TEST(SynthesizedProfileTest, DeterministicInSeed) {
  const auto& bench = workload::Spec2006()[0];
  const auto a = workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 9);
  const auto b = workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 9);
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].instrumented_cost, b.functions[i].instrumented_cost);
  }
}

TEST(SynthesizedProfileTest, ResidualFractionSaneForAllSanitizers) {
  for (const auto& info : san::AllSanitizers()) {
    const double r = workload::ResidualFraction(info.id);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 0.5);
  }
}

}  // namespace
}  // namespace bunshin
