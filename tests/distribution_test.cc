// Tests for the variant generator: check distribution plans, variant
// building (de-instrumentation), and conflict-aware sanitizer distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/distribution/distribution.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/sanitizer/asan_pass.h"
#include "src/slicing/slicer.h"
#include "src/workload/funcprofile.h"
#include "src/workload/workload.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

profile::OverheadProfile SampleProfile() {
  const auto& bench = workload::Spec2006()[0];  // perlbench, 1800 functions
  return workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 1);
}

TEST(CheckDistributionTest, PlanCoversEveryFunctionDisjointly) {
  const auto profile = SampleProfile();
  for (size_t n : {2, 3, 5}) {
    auto plan = distribution::PlanCheckDistribution(profile, n);
    ASSERT_TRUE(plan.ok());
    std::set<std::string> seen;
    size_t total = 0;
    for (const auto& fns : plan->protected_functions) {
      for (const auto& fn : fns) {
        EXPECT_TRUE(seen.insert(fn).second) << fn << " protected twice";
        ++total;
      }
    }
    EXPECT_EQ(total, profile.functions.size());
  }
}

TEST(CheckDistributionTest, OverheadBalancedAcrossVariants) {
  const auto profile = SampleProfile();
  auto plan = distribution::PlanCheckDistribution(profile, 3);
  ASSERT_TRUE(plan.ok());
  const double total_overhead = testutil::TotalOverhead(profile);
  for (double o : plan->predicted_overhead) {
    // Each variant carries roughly 1/3 of the distributable overhead.
    EXPECT_LT(o, total_overhead * 0.55);
    EXPECT_GT(o, 0.0);
  }
  EXPECT_LT(plan->partition.balance_ratio, 1.10);
}

TEST(CheckDistributionTest, DominantFunctionBecomesBottleneck) {
  // hmmer: one function holds 97% of the runtime — per-variant overhead
  // cannot drop below that function's share (the paper's outliers).
  const auto* hmmer = workload::FindBenchmark("hmmer");
  ASSERT_NE(hmmer, nullptr);
  const auto profile =
      workload::SynthesizeFunctionProfile(*hmmer, san::SanitizerId::kASan, 1);
  auto plan = distribution::PlanCheckDistribution(profile, 3);
  ASSERT_TRUE(plan.ok());
  const double max_pred =
      *std::max_element(plan->predicted_overhead.begin(), plan->predicted_overhead.end());
  EXPECT_GT(max_pred, testutil::TotalOverhead(profile) * 0.75);  // no distribution happened
}

TEST(CheckDistributionTest, BuiltVariantsKeepOnlyAssignedChecks) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());

  distribution::CheckDistributionPlan plan;
  plan.n_variants = 2;
  plan.protected_functions = {{"hot", "cold"}, {"warm", "main"}};
  auto variants = distribution::BuildCheckVariants(*instrumented, plan);
  ASSERT_TRUE(variants.ok());
  ASSERT_EQ(variants->size(), 2u);

  // Reference: checks per function in the fully instrumented module.
  std::map<std::string, size_t> full_checks;
  for (const auto& fn : instrumented->functions()) {
    full_checks[fn->name()] = slicing::DiscoverChecks(*fn).size();
  }

  for (size_t v = 0; v < 2; ++v) {
    ASSERT_TRUE(ir::VerifyModule(*(*variants)[v]).ok());
    for (const auto& fn : (*variants)[v]->functions()) {
      const bool is_protected =
          std::find(plan.protected_functions[v].begin(), plan.protected_functions[v].end(),
                    fn->name()) != plan.protected_functions[v].end();
      const auto sites = slicing::DiscoverChecks(*fn);
      if (is_protected) {
        EXPECT_EQ(sites.size(), full_checks[fn->name()])
            << "variant " << v << " lost checks in " << fn->name();
      } else {
        EXPECT_EQ(sites.size(), 0u) << "variant " << v << " kept checks in " << fn->name();
      }
    }
  }
}

TEST(CheckDistributionTest, UnionOfVariantChecksEqualsFullInstrumentation) {
  // Security invariant: collectively, all checks are covered (§3.1).
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  auto stats = pass.Run(instrumented.get());
  ASSERT_TRUE(stats.ok());

  distribution::CheckDistributionPlan plan;
  plan.n_variants = 3;
  plan.protected_functions = {{"hot"}, {"warm"}, {"cold", "main"}};
  auto variants = distribution::BuildCheckVariants(*instrumented, plan);
  ASSERT_TRUE(variants.ok());

  size_t union_checks = 0;
  for (const auto& variant : *variants) {
    for (const auto& fn : variant->functions()) {
      union_checks += slicing::DiscoverChecks(*fn).size();
    }
  }
  EXPECT_EQ(union_checks, stats->checks_inserted);
}

TEST(SanitizerDistributionTest, ConflictingSanitizersSeparated) {
  auto plan = distribution::PlanWholeSanitizerDistribution(
      {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan}, 3);
  ASSERT_TRUE(plan.ok());
  // ASan and MSan conflict: never together.
  for (const auto& group : plan->groups) {
    std::set<size_t> items(group.begin(), group.end());
    EXPECT_FALSE(items.count(0) > 0 && items.count(1) > 0);
  }
}

TEST(SanitizerDistributionTest, FailsWhenVariantsCannotSeparateConflicts) {
  // ASan and MSan in a single variant is impossible.
  auto plan = distribution::PlanWholeSanitizerDistribution(
      {san::SanitizerId::kASan, san::SanitizerId::kMSan}, 1);
  EXPECT_FALSE(plan.ok());
}

TEST(SanitizerDistributionTest, UbsanSplitBalanced) {
  for (size_t n : {2, 3}) {
    auto plan = distribution::PlanUbsanDistribution(n);
    ASSERT_TRUE(plan.ok());
    double total = 0.0;
    size_t items = 0;
    for (size_t g = 0; g < plan->groups.size(); ++g) {
      total += plan->group_overheads[g];
      items += plan->groups[g].size();
    }
    EXPECT_EQ(items, san::UBSanSubSanitizers().size());
    // With 19 uneven items the balance is imperfect but bounded (the paper
    // observes ~15% deviation from the theoretical optimum).
    EXPECT_LT(plan->max_overhead, total / static_cast<double>(n) * 1.45);
  }
}

TEST(SanitizerDistributionTest, EmptyUnitsRejected) {
  EXPECT_FALSE(distribution::PlanSanitizerDistribution({}, 2).ok());
}

TEST(SanitizerDistributionTest, LocalSearchImprovesBalance) {
  // Weights engineered so plain LPT is suboptimal.
  std::vector<distribution::ProtectionUnit> units = {
      {"a", 0.7}, {"b", 0.6}, {"c", 0.5}, {"d", 0.4}, {"e", 0.4}, {"f", 0.4}};
  auto plan = distribution::PlanSanitizerDistribution(units, 2);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->max_overhead, 1.5, 0.21);  // ideal 1.5
}

}  // namespace
}  // namespace bunshin
