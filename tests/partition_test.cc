// Tests for balanced N-partition: invariants for all algorithms plus quality
// properties (parameterized property sweeps), and the Karmarkar–Karp kernel
// checked bit for bit against the node-copying kernel it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "src/partition/partition.h"
#include "src/sanitizer/sanitizer.h"
#include "src/support/rng.h"
#include "src/workload/funcprofile.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

using partition::Algorithm;
using partition::KarmarkarKarpBins;
using partition::Partition;
using partition::PartitionOptions;
using partition::PartitionResult;

// The partition invariants: a disjoint cover of [0, weights.size()) by
// n_bins bins, and bin sums consistent with the weights.
Status ValidatePartition(const std::vector<double>& weights, const PartitionResult& result,
                         size_t n_bins) {
  if (result.bins.size() != n_bins) {
    return Internal("wrong number of bins");
  }
  std::vector<int> seen(weights.size(), 0);
  for (const auto& bin : result.bins) {
    for (size_t item : bin) {
      if (item >= weights.size()) {
        return Internal("item index out of range");
      }
      if (++seen[item] > 1) {
        return Internal("item " + std::to_string(item) + " assigned to multiple bins");
      }
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] == 0) {
      return Internal("item " + std::to_string(i) + " not assigned to any bin");
    }
  }
  for (size_t b = 0; b < n_bins; ++b) {
    double sum = 0.0;
    for (size_t item : result.bins[b]) {
      sum += weights[item];
    }
    if (std::abs(sum - result.bin_sums[b]) > 1e-9 * std::max(1.0, sum)) {
      return Internal("bin sum mismatch for bin " + std::to_string(b));
    }
  }
  return Status::Ok();
}

class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, size_t, size_t, uint64_t>> {};

TEST_P(PartitionPropertyTest, DisjointCoverAndBalanceBound) {
  const auto [algorithm, n_items, n_bins, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> weights;
  double max_weight = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < n_items; ++i) {
    const double w = rng.NextExponential(10.0);
    weights.push_back(w);
    max_weight = std::max(max_weight, w);
    total += w;
  }

  PartitionOptions options;
  options.algorithm = algorithm;
  auto result = Partition(weights, n_bins, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Invariant: disjoint cover.
  EXPECT_TRUE(ValidatePartition(weights, *result, n_bins).ok());

  // Quality: no bin exceeds ideal + max item (the LPT bound holds for every
  // algorithm here because all are at least as good as greedy on these sizes).
  const double ideal = total / static_cast<double>(n_bins);
  EXPECT_LE(result->max_sum, ideal + max_weight + 1e-9)
      << partition::AlgorithmName(algorithm);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionPropertyTest,
    ::testing::Combine(::testing::Values(Algorithm::kGreedyLpt, Algorithm::kKarmarkarKarp,
                                         Algorithm::kCompleteGreedy,
                                         Algorithm::kFptasSubsetSum),
                       ::testing::Values<size_t>(1, 2, 19, 64, 200),
                       ::testing::Values<size_t>(1, 2, 3, 8),
                       ::testing::Values<uint64_t>(7, 1234)),
    [](const auto& info) {
      std::string algo = partition::AlgorithmName(std::get<0>(info.param));
      for (char& c : algo) {
        if (c == '-') {
          c = '_';
        }
      }
      return algo + "_items" +
             std::to_string(std::get<1>(info.param)) + "_bins" +
             std::to_string(std::get<2>(info.param)) + "_seed" +
             std::to_string(std::get<3>(info.param));
    });

// --- Karmarkar–Karp oracle ----------------------------------------------------

// The kernel KarmarkarKarpBins replaced, kept as the oracle: a
// std::priority_queue of whole partials that copies both tops on every merge.
struct RefNode {
  std::vector<double> sums;               // descending
  std::vector<std::vector<size_t>> bins;  // parallel to sums
  double spread() const { return sums.front() - sums.back(); }
};

struct RefNodeLess {
  bool operator()(const RefNode& a, const RefNode& b) const { return a.spread() < b.spread(); }
};

void RefSortNode(RefNode* node) {
  std::vector<size_t> order(node->sums.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return node->sums[a] > node->sums[b]; });
  std::vector<double> sums;
  std::vector<std::vector<size_t>> bins;
  for (size_t i : order) {
    sums.push_back(node->sums[i]);
    bins.push_back(std::move(node->bins[i]));
  }
  node->sums = std::move(sums);
  node->bins = std::move(bins);
}

std::vector<std::vector<size_t>> ReferenceKarmarkarKarp(const std::vector<double>& weights,
                                                        size_t n_bins) {
  std::priority_queue<RefNode, std::vector<RefNode>, RefNodeLess> heap;
  for (size_t i = 0; i < weights.size(); ++i) {
    RefNode node;
    node.sums.assign(n_bins, 0.0);
    node.bins.assign(n_bins, {});
    node.sums[0] = weights[i];
    node.bins[0] = {i};
    heap.push(std::move(node));
  }
  if (heap.empty()) {
    return std::vector<std::vector<size_t>>(n_bins);
  }
  while (heap.size() > 1) {
    RefNode a = heap.top();
    heap.pop();
    RefNode b = heap.top();
    heap.pop();
    RefNode merged;
    merged.sums.resize(n_bins);
    merged.bins.resize(n_bins);
    for (size_t k = 0; k < n_bins; ++k) {
      const size_t bk = n_bins - 1 - k;
      merged.sums[k] = a.sums[k] + b.sums[bk];
      merged.bins[k] = std::move(a.bins[k]);
      merged.bins[k].insert(merged.bins[k].end(), b.bins[bk].begin(), b.bins[bk].end());
    }
    RefSortNode(&merged);
    heap.push(std::move(merged));
  }
  return heap.top().bins;
}

// Checks one input: the kernel's bins and item order equal the oracle's, and
// Partition's bin sums equal, bit for bit, the oracle's bins summed in item
// order (Finalize's order). Returns false after the first mismatch.
bool MatchesReference(const std::vector<double>& weights, size_t n_bins,
                      const std::string& label) {
  SCOPED_TRACE(label + ", " + std::to_string(weights.size()) + " items, " +
               std::to_string(n_bins) + " bins");
  const std::vector<std::vector<size_t>> expected = ReferenceKarmarkarKarp(weights, n_bins);
  EXPECT_EQ(KarmarkarKarpBins(weights, n_bins), expected);
  const auto result = Partition(weights, n_bins, {.algorithm = Algorithm::kKarmarkarKarp});
  EXPECT_TRUE(result.ok());
  if (!result.ok()) {
    return false;
  }
  for (size_t b = 0; b < n_bins; ++b) {
    double sum = 0.0;
    for (size_t item : expected[b]) {
      sum += weights[item];
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(result->bin_sums[b]), std::bit_cast<uint64_t>(sum))
        << "bin " << b << ": " << result->bin_sums[b] << " vs " << sum;
  }
  return !::testing::Test::HasFailure();
}

enum class WeightFamily { kSmallMod5, kUniform, kLogNormal };

std::vector<double> DrawWeights(WeightFamily family, size_t n_items, Rng* rng) {
  std::vector<double> weights(n_items);
  for (double& w : weights) {
    switch (family) {
      case WeightFamily::kSmallMod5:  // heavy ties, zeros included
        w = static_cast<double>(rng->NextU64() % 5);
        break;
      case WeightFamily::kUniform:
        w = 1000.0 * rng->NextDouble();
        break;
      case WeightFamily::kLogNormal:
        w = std::exp(rng->NextGaussian(0.0, 1.5));
        break;
    }
  }
  return weights;
}

TEST(KarmarkarKarpOracleTest, MatchesNodeCopyingKernelOverSeededSweep) {
  const std::pair<WeightFamily, const char*> families[] = {
      {WeightFamily::kSmallMod5, "small-mod-5"},
      {WeightFamily::kUniform, "uniform"},
      {WeightFamily::kLogNormal, "log-normal"},
  };
  Rng rng(0x4B4B);
  for (const auto& [family, name] : families) {
    for (size_t n_bins = 1; n_bins <= 9; ++n_bins) {
      // Fixed edge sizes, then random sizes over the whole range.
      std::vector<size_t> sizes = {0, 1, 2, 3, 5, 8, 9, 10, 17, 600};
      for (int draw = 0; draw < 6; ++draw) {
        sizes.push_back(static_cast<size_t>(rng.NextBounded(601)));
      }
      for (size_t n_items : sizes) {
        if (!MatchesReference(DrawWeights(family, n_items, &rng), n_bins, name)) {
          return;
        }
      }
    }
  }
}

TEST(KarmarkarKarpOracleTest, MatchesNodeCopyingKernelOnCatalogProfiles) {
  std::vector<workload::BenchmarkSpec> programs = workload::Spec2006();
  for (const auto& suite : {workload::Splash2x(), workload::ParsecSupported()}) {
    programs.insert(programs.end(), suite.begin(), suite.end());
  }
  ASSERT_EQ(programs.size(), 38u);
  for (const workload::BenchmarkSpec& bench : programs) {
    const std::vector<double> weights =
        workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 2027)
            .DistributableWeights();
    for (size_t n_bins : {2, 4, 8}) {
      if (!MatchesReference(weights, n_bins, bench.name)) {
        return;
      }
    }
  }
}

TEST(PartitionTest, EmptyInputYieldsEmptyBins) {
  auto result = Partition({}, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bins.size(), 3u);
  for (const auto& bin : result->bins) {
    EXPECT_TRUE(bin.empty());
  }
}

TEST(PartitionTest, RejectsZeroBins) { EXPECT_FALSE(Partition({1.0}, 0).ok()); }

TEST(PartitionTest, RejectsNegativeWeights) { EXPECT_FALSE(Partition({1.0, -2.0}, 2).ok()); }

TEST(PartitionTest, KarmarkarKarpRejectsBinCountsItsBinArrayCannotHold) {
  // Items x bins must not wrap when the kernel sizes its bin array.
  EXPECT_FALSE(Partition({1.0, 2.0, 3.0}, std::numeric_limits<size_t>::max() / 2).ok());
}

TEST(PartitionTest, PerfectSplitFound) {
  // 2 bins, weights that admit a perfect 50/50 split.
  const std::vector<double> weights = {8, 7, 6, 5, 4, 3, 2, 1};  // total 36
  for (auto algorithm : {Algorithm::kKarmarkarKarp, Algorithm::kCompleteGreedy,
                         Algorithm::kFptasSubsetSum}) {
    PartitionOptions options;
    options.algorithm = algorithm;
    auto result = Partition(weights, 2, options);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->max_sum, 18.0, 1e-6) << partition::AlgorithmName(algorithm);
  }
}

TEST(PartitionTest, CompleteGreedyOptimalOnSmallHardInstance) {
  // Known partition stress case: LPT is suboptimal here; exhaustive search
  // within budget finds the optimum {4,5,6} vs {7,8}.
  const std::vector<double> weights = {7, 8, 4, 5, 6};
  PartitionOptions options;
  options.algorithm = Algorithm::kCompleteGreedy;
  auto result = Partition(weights, 2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->max_sum, 15.0, 1e-9);
}

TEST(PartitionTest, SingleDominantItemIsTheBound) {
  // The hmmer/lbm situation: one item holds ~97% of the weight; no algorithm
  // can balance, and max_sum equals that item's weight.
  std::vector<double> weights = {97.0, 1.0, 1.0, 1.0};
  for (auto algorithm : {Algorithm::kGreedyLpt, Algorithm::kKarmarkarKarp,
                         Algorithm::kCompleteGreedy, Algorithm::kFptasSubsetSum}) {
    PartitionOptions options;
    options.algorithm = algorithm;
    auto result = Partition(weights, 3, options);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->max_sum, 97.0, 1e-9);
  }
}

TEST(PartitionTest, BalanceRatioNearOneOnManySmallItems) {
  Rng rng(99);
  std::vector<double> weights;
  for (int i = 0; i < 500; ++i) {
    weights.push_back(1.0 + rng.NextDouble());
  }
  for (auto algorithm : {Algorithm::kKarmarkarKarp, Algorithm::kFptasSubsetSum}) {
    PartitionOptions options;
    options.algorithm = algorithm;
    auto result = Partition(weights, 3, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->balance_ratio, 1.02) << partition::AlgorithmName(algorithm);
  }
}

TEST(PartitionTest, MoreBinsNeverDecreaseMaxBinBelowIdeal) {
  Rng rng(5);
  std::vector<double> weights;
  double total = 0.0;
  for (int i = 0; i < 64; ++i) {
    weights.push_back(rng.NextExponential(4.0));
    total += weights.back();
  }
  for (size_t n = 1; n <= 6; ++n) {
    auto result = Partition(weights, n);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->max_sum + 1e-9, total / static_cast<double>(n));
  }
}

}  // namespace
}  // namespace bunshin
