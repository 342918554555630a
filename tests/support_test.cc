// Tests for the support utilities: PRNG, stats, tables, status.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
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

// The generator's per-draw methods as they were defined out of line in
// rng.cc before they moved into the header, kept as the oracle for the
// inline ones: the same seeding and state update, and a bounded draw that
// computes its rejection threshold before every draw. It counts the draws
// its bounded draws reject.
class OracleRng {
 public:
  explicit OracleRng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const uint64_t r = NextU64();
      if (r >= threshold) {
        return r % bound;
      }
      ++rejected_;
    }
  }

  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  bool NextBool(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return NextDouble() < p;
  }

  uint64_t rejected() const { return rejected_; }

 private:
  static uint64_t SplitMix64(uint64_t& x) {
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  uint64_t rejected_ = 0;
};

// Both generators are in the same state: their next draws agree.
void ExpectSameState(Rng* rng, OracleRng* oracle, const std::string& what) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(rng->NextU64(), oracle->NextU64()) << what << ": state differs";
  }
}

constexpr uint64_t kTwo32 = uint64_t{1} << 32;
constexpr uint64_t kTwo63 = uint64_t{1} << 63;
constexpr uint64_t kMax64 = std::numeric_limits<uint64_t>::max();

TEST(RngOracleTest, BoundedDrawsMatchTheOutOfLineOracle) {
  const uint64_t bounds[] = {0,          1,          2,          3,          4,
                             5,          7,          8,          17,         100,
                             1000,       4032,       8192,       1 << 20,    kTwo32 - 1,
                             kTwo32,     kTwo32 + 1, kTwo63 - 1, kTwo63,     kTwo63 + 1,
                             kMax64 - 2, kMax64 - 1, kMax64};
  for (uint64_t seed = 0; seed < 64; ++seed) {
    for (const uint64_t bound : bounds) {
      const std::string what = "seed " + std::to_string(seed) + ", bound " + std::to_string(bound);
      Rng rng(seed);
      OracleRng oracle(seed);
      for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(rng.NextBounded(bound), oracle.NextBounded(bound)) << what << ", draw " << i;
      }
      ExpectSameState(&rng, &oracle, what);
    }
  }
  // 2^63 + 1 keeps only draws of at least 2^63 - 1: about half are rejected
  // and redrawn, so the sweep runs the rejection loop.
  OracleRng half(7);
  for (int i = 0; i < 10000; ++i) {
    half.NextBounded(kTwo63 + 1);
  }
  EXPECT_GT(half.rejected(), 9000u);
  EXPECT_LT(half.rejected(), 11000u);
}

TEST(RngOracleTest, UnitDrawsMatchTheOutOfLineOracle) {
  const double probabilities[] = {-1.0,
                                  0.0,
                                  std::numeric_limits<double>::denorm_min(),
                                  0.004,
                                  0.5,
                                  0.999,
                                  1.0,
                                  2.0,
                                  std::numeric_limits<double>::quiet_NaN()};
  for (uint64_t seed = 0; seed < 64; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    Rng rng(seed);
    OracleRng oracle(seed);
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(rng.NextU64(), oracle.NextU64()) << what << ", draw " << i;
      const double got = rng.NextDouble();
      const double want = oracle.NextDouble();
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0) << what << ", draw " << i;
      for (const double p : probabilities) {
        ASSERT_EQ(rng.NextBool(p), oracle.NextBool(p)) << what << ", p " << p;
      }
    }
    ExpectSameState(&rng, &oracle, what);
  }
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
