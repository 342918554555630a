// Tests for the support utilities: PRNG, stats, tables, status.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "src/support/rng.h"
#include "src/support/stats.h"
#include "src/support/status.h"
#include "src/support/table.h"

namespace bunshin {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) {
    draws.push_back(rng.NextGaussian(5.0, 2.0));
  }
  const double mean = Mean(draws);
  double squares = 0.0;
  for (double d : draws) {
    squares += (d - mean) * (d - mean);
  }
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(squares / static_cast<double>(draws.size() - 1)), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(13);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) {
    draws.push_back(rng.NextExponential(3.0));
  }
  EXPECT_NEAR(Mean(draws), 3.0, 0.1);
  EXPECT_GE(*std::min_element(draws.begin(), draws.end()), 0.0);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng parent(5);
  Rng child_a = parent.Fork(1);
  Rng child_b = parent.Fork(2);
  EXPECT_NE(child_a.NextU64(), child_b.NextU64());
}

TEST(StatsTest, Means) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22222"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, Formatting) {
  EXPECT_EQ(Table::Pct(0.081), "8.1%");
  EXPECT_EQ(Table::Pct(1.07, 0), "107%");
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad");
}

TEST(StatusTest, StatusOrHoldsValueOrStatus) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad(NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace bunshin
