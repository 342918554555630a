// Tests for the RIPE attack space (Table 3) and CVE models (Table 4).
#include <gtest/gtest.h>

#include "src/attack/cve.h"
#include "src/attack/ripe.h"

namespace bunshin {
namespace {

TEST(RipeTest, SpaceHas3840Configurations) {
  EXPECT_EQ(attack::EnumerateRipe().size(), attack::kRipeTotal);
  EXPECT_EQ(attack::kRipeTotal, 3840u);
}

TEST(RipeTest, IndicesAreStableAndDense) {
  const auto all = attack::EnumerateRipe();
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].Index(), i);
  }
}

TEST(RipeTest, VanillaCountsMatchTable3) {
  const auto summary = attack::RunRipe(attack::Defense::kNone);
  EXPECT_EQ(summary.success, 114u);
  EXPECT_EQ(summary.probabilistic, 16u);
  EXPECT_EQ(summary.failure, 720u);
  EXPECT_EQ(summary.not_possible, 2990u);
}

TEST(RipeTest, AsanCountsMatchTable3) {
  const auto summary = attack::RunRipe(attack::Defense::kAsan);
  EXPECT_EQ(summary.success, 8u);
  EXPECT_EQ(summary.probabilistic, 0u);
  EXPECT_EQ(summary.failure, 842u);
  EXPECT_EQ(summary.not_possible, 2990u);
}

TEST(RipeTest, BunshinPreservesAsanGuarantee) {
  // The paper's key claim: check distribution does not weaken ASan — the
  // same 8 exploits succeed, everything else is stopped.
  const auto summary = attack::RunRipe(attack::Defense::kBunshinCheckDist2);
  EXPECT_EQ(summary.success, 8u);
  EXPECT_EQ(summary.probabilistic, 0u);
  EXPECT_EQ(summary.failure, 842u);
  EXPECT_EQ(summary.not_possible, 2990u);
}

TEST(RipeTest, AsanMissesAreVanillaSuccesses) {
  // The 8 ASan-missed configurations must be attacks that actually succeed
  // on the vanilla platform (otherwise "8 succeed under ASan" is vacuous).
  size_t misses = 0;
  for (const auto& a : attack::EnumerateRipe()) {
    if (attack::VanillaOutcome(a) != attack::RipeOutcome::kNotPossible &&
        !attack::AsanDetects(a)) {
      ++misses;
      EXPECT_EQ(attack::VanillaOutcome(a), attack::RipeOutcome::kSuccess) << "config "
                                                                           << a.Index();
    }
  }
  EXPECT_EQ(misses, 8u);
}

TEST(CveTest, FiveCasesFromTable4) {
  const auto& cases = attack::CveCases();
  ASSERT_EQ(cases.size(), 5u);
  EXPECT_EQ(cases[0].cve, "CVE-2013-2028");
  EXPECT_EQ(cases[3].exploit, "heartbleed");
  EXPECT_EQ(cases[4].sanitizer, san::SanitizerId::kUBSan);
}

TEST(CveTest, AllCvesDetected) {
  for (const auto& cve_case : attack::CveCases()) {
    auto result = attack::RunCve(cve_case);
    ASSERT_TRUE(result.ok()) << cve_case.cve << ": " << result.status().ToString();
    EXPECT_TRUE(result->stopped) << cve_case.cve;
    EXPECT_TRUE(result->detected) << cve_case.cve;
    EXPECT_TRUE(result->protected_by_plan) << cve_case.cve;
  }
}

TEST(CveTest, NginxDetectorIsAsanStore) {
  auto result = attack::RunCve(attack::CveCases()[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->detector, "__asan_report_store");
}

TEST(CveTest, HttpdUsesUbsanNullDetector) {
  auto result = attack::RunCve(attack::CveCases()[4]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->detector, "__ubsan_report_null_pointer_use");
}

TEST(CveTest, DetectionStableAcrossSeeds) {
  // The plan (and thus which variant holds the check) changes with the seed,
  // but detection must hold regardless.
  for (uint64_t seed : {1ull, 7ull, 1234ull}) {
    auto result = attack::RunCve(attack::CveCases()[0], seed);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->detected) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace bunshin
