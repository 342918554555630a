// Balanced N-way number partitioning.
//
// Bunshin's variant generator must split protection units (functions for
// check distribution, sub-sanitizers for sanitizer distribution) into N
// disjoint subsets whose overhead sums are as equal as possible (Appendix A:
// minimize sum_i |O_Vi - O_total/N|). Optimal N-partition is NP-complete
// (Mertens), so the paper adopts a fast near-optimal polynomial scheme
// (Kellerer et al.'s subset-sum FPTAS). We implement that plus the standard
// alternatives so the ablation bench can compare them:
//
//   kGreedyLpt       longest-processing-time greedy, O(K log K)
//   kKarmarkarKarp   largest differencing method generalized to N bins
//   kCompleteGreedy  branch-and-bound DFS with a node budget (anytime-optimal)
//   kFptasSubsetSum  repeatedly peel a subset closest to O_total/N via a
//                    scaled subset-sum DP (the paper's choice)
#ifndef BUNSHIN_SRC_PARTITION_PARTITION_H_
#define BUNSHIN_SRC_PARTITION_PARTITION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace bunshin {
namespace partition {

enum class Algorithm { kGreedyLpt, kKarmarkarKarp, kCompleteGreedy, kFptasSubsetSum };

const char* AlgorithmName(Algorithm algorithm);

struct PartitionResult {
  // bins[i] holds the indices (into the input weight vector) assigned to
  // variant i. Every index appears in exactly one bin.
  std::vector<std::vector<size_t>> bins;
  std::vector<double> bin_sums;

  double total = 0.0;
  double max_sum = 0.0;
  // max_sum / (total / N): 1.0 is the theoretical optimum of Appendix A.4.
  double balance_ratio = 0.0;
};

struct PartitionOptions {
  Algorithm algorithm = Algorithm::kKarmarkarKarp;
  // Node budget for kCompleteGreedy.
  size_t max_nodes = 200000;
  // Scaling resolution for kFptasSubsetSum: epsilon of the FPTAS.
  double epsilon = 0.01;
};

// Partitions `weights` (all >= 0) into `n_bins` subsets. n_bins >= 1 and
// n_bins <= weights.size() is not required (empty bins are allowed).
StatusOr<PartitionResult> Partition(const std::vector<double>& weights, size_t n_bins,
                                    const PartitionOptions& options = {});

// The kKarmarkarKarp kernel (largest differencing, N-way), before Partition
// sorts each bin: bins in descending order of sum, each listing its items in
// the order the merges joined them.
//
// Item i starts as partial i (bin 0 holds it, the other N-1 are empty). The
// heap holds (spread, block) entries, where spread is a partial's largest bin
// sum minus its smallest and `block` names its N bins in one flat array. Each
// bin is a (sum, head, tail) triple over an item list threaded through one
// `next` index array. Merging the two widest partials a and b pairs a's k-th
// largest bin with b's k-th smallest inside a's block: the sums add in that
// order, b's list is linked after a's (O(1)), and an insertion sort puts the
// bins back in descending order, stable among equal sums. A merge copies no
// item and allocates nothing.
//
// Two rules keep the result bit-identical to the former node-copying kernel
// (std::priority_queue of whole partials), which tests/partition_test.cc
// keeps as its oracle:
//   - Ties. The heap is driven by std::push_heap/std::pop_heap in the same
//     push/pop sequence and compares spread only, never the block id, so
//     equal spreads pop in the same order.
//   - Item order. Finalize sums each bin in this item order before sorting
//     it; those sums become predicted_overhead, then each check variant's
//     compute scale and so every trace. Floating-point addition is not
//     associative, so a join keeps a's items before b's.
// Item indices are size_t; the end-of-list mark is SIZE_MAX, which no vector
// index reaches. Callers pass what Partition has validated: n_bins >= 1,
// finite non-negative weights, and weights.size() * n_bins bins that fit in
// one array.
std::vector<std::vector<size_t>> KarmarkarKarpBins(const std::vector<double>& weights,
                                                   size_t n_bins);

}  // namespace partition
}  // namespace bunshin

#endif  // BUNSHIN_SRC_PARTITION_PARTITION_H_
