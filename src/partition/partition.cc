#include "src/partition/partition.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <set>

#include "src/support/enum_name.h"

namespace bunshin {
namespace partition {
namespace {

// Item indices sorted by descending weight (stable for determinism).
std::vector<size_t> DescendingOrder(const std::vector<double>& weights) {
  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return weights[a] > weights[b]; });
  return order;
}

PartitionResult Finalize(const std::vector<double>& weights, size_t n_bins,
                         std::vector<std::vector<size_t>> bins) {
  PartitionResult result;
  result.bins = std::move(bins);
  result.bins.resize(n_bins);
  result.bin_sums.assign(n_bins, 0.0);
  for (size_t b = 0; b < n_bins; ++b) {
    for (size_t item : result.bins[b]) {
      result.bin_sums[b] += weights[item];
    }
    std::sort(result.bins[b].begin(), result.bins[b].end());
  }
  result.total = std::accumulate(result.bin_sums.begin(), result.bin_sums.end(), 0.0);
  result.max_sum = *std::max_element(result.bin_sums.begin(), result.bin_sums.end());
  const double ideal = result.total / static_cast<double>(n_bins);
  result.balance_ratio = ideal > 0.0 ? result.max_sum / ideal : 1.0;
  return result;
}

// --- Greedy LPT -------------------------------------------------------------

std::vector<std::vector<size_t>> GreedyLpt(const std::vector<double>& weights, size_t n_bins) {
  std::vector<std::vector<size_t>> bins(n_bins);
  std::vector<double> sums(n_bins, 0.0);
  for (size_t item : DescendingOrder(weights)) {
    const size_t target = static_cast<size_t>(
        std::min_element(sums.begin(), sums.end()) - sums.begin());
    bins[target].push_back(item);
    sums[target] += weights[item];
  }
  return bins;
}

// --- Karmarkar–Karp (largest differencing, N-way) ---------------------------

// The representation and its tie and order rules are described at
// KarmarkarKarpBins in partition.h.
constexpr size_t kNoItem = std::numeric_limits<size_t>::max();

// One bin of a partial solution: its sum and the ends of its item list.
struct KkBin {
  double sum;
  size_t head;  // first item, or kNoItem when the bin is empty
  size_t tail;  // last item, or kNoItem when the bin is empty
};

// A heap entry: partial `block` owns the bins at [block * N, block * N + N).
struct KkEntry {
  double spread;  // largest bin sum minus smallest
  size_t block;
};

// Spread only, never the block: the pop order of equal spreads decides the
// bins (see KarmarkarKarpBins in partition.h).
bool KkEntryLess(const KkEntry& a, const KkEntry& b) { return a.spread < b.spread; }

// Stable sort of one partial's bins by descending sum, in place.
void SortBins(KkBin* bins, size_t n_bins) {
  for (size_t i = 1; i < n_bins; ++i) {
    const KkBin bin = bins[i];
    size_t j = i;
    for (; j > 0 && bins[j - 1].sum < bin.sum; --j) {
      bins[j] = bins[j - 1];
    }
    bins[j] = bin;
  }
}

// --- Complete greedy (branch and bound) -------------------------------------

struct CgState {
  const std::vector<double>* weights;
  const std::vector<size_t>* order;
  std::vector<double> suffix;  // suffix sums of ordered weights
  size_t n_bins;
  size_t nodes_left;
  double best_max;
  std::vector<size_t> best_assign;   // item order position -> bin
  std::vector<size_t> cur_assign;
  std::vector<double> sums;
};

void CgDfs(CgState* st, size_t pos) {
  if (st->nodes_left == 0) {
    return;
  }
  --st->nodes_left;
  if (pos == st->order->size()) {
    const double cur_max = *std::max_element(st->sums.begin(), st->sums.end());
    if (cur_max < st->best_max) {
      st->best_max = cur_max;
      st->best_assign = st->cur_assign;
    }
    return;
  }
  const double w = (*st->weights)[(*st->order)[pos]];
  // Lower bound: even perfectly spreading the remaining weight cannot beat
  // best_max if some bin already exceeds it.
  const double cur_max = *std::max_element(st->sums.begin(), st->sums.end());
  if (cur_max >= st->best_max) {
    return;
  }

  // Try bins in ascending-sum order; skip bins with equal sums (symmetry).
  std::vector<size_t> bin_order(st->n_bins);
  std::iota(bin_order.begin(), bin_order.end(), 0);
  std::sort(bin_order.begin(), bin_order.end(),
            [&](size_t a, size_t b) { return st->sums[a] < st->sums[b]; });
  std::set<double> tried;
  for (size_t b : bin_order) {
    if (!tried.insert(st->sums[b]).second) {
      continue;
    }
    st->sums[b] += w;
    st->cur_assign[pos] = b;
    CgDfs(st, pos + 1);
    st->sums[b] -= w;
    if (st->nodes_left == 0) {
      return;
    }
  }
}

std::vector<std::vector<size_t>> CompleteGreedy(const std::vector<double>& weights, size_t n_bins,
                                                size_t max_nodes) {
  const std::vector<size_t> order = DescendingOrder(weights);
  CgState st;
  st.weights = &weights;
  st.order = &order;
  st.n_bins = n_bins;
  st.nodes_left = max_nodes;
  st.best_max = std::numeric_limits<double>::infinity();
  st.cur_assign.assign(order.size(), 0);
  st.sums.assign(n_bins, 0.0);

  // Seed with the LPT solution so the budgeted search is anytime-good.
  {
    std::vector<double> sums(n_bins, 0.0);
    std::vector<size_t> seed(order.size());
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const size_t target = static_cast<size_t>(
          std::min_element(sums.begin(), sums.end()) - sums.begin());
      seed[pos] = target;
      sums[target] += weights[order[pos]];
    }
    st.best_max = *std::max_element(sums.begin(), sums.end());
    st.best_assign = std::move(seed);
  }

  CgDfs(&st, 0);

  std::vector<std::vector<size_t>> bins(n_bins);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    bins[st.best_assign[pos]].push_back(order[pos]);
  }
  return bins;
}

// --- FPTAS subset-sum peeling (the paper's polynomial scheme) ---------------

// Finds a subset of `items` whose weight sum is as close as possible to
// `target` (from below, preferring slightly-above when much closer), using a
// scaled dynamic program whose resolution is epsilon * target.
std::vector<size_t> SubsetNearTarget(const std::vector<double>& weights,
                                     const std::vector<size_t>& items, double target,
                                     double epsilon) {
  if (items.empty()) {
    return {};
  }
  double total = 0.0;
  for (size_t i : items) {
    total += weights[i];
  }
  if (total <= target) {
    return items;  // take everything
  }
  // Scale weights to integers with resolution delta.
  const double delta = std::max(epsilon * target / static_cast<double>(items.size()),
                                1e-12);
  const long cap = std::lround(target / delta) + 1;

  // dp[s] = index into `items` of the last item used to reach scaled sum s,
  // or -1 if unreachable; parent link via prev[s].
  std::vector<long> from_item(static_cast<size_t>(cap) + 1, -2);
  std::vector<long> prev_sum(static_cast<size_t>(cap) + 1, -1);
  from_item[0] = -1;
  for (size_t idx = 0; idx < items.size(); ++idx) {
    const long w = std::lround(weights[items[idx]] / delta);
    if (w <= 0) {
      continue;  // zero-weight items are appended to the subset at the end
    }
    for (long s = cap; s >= w; --s) {
      if (from_item[static_cast<size_t>(s)] == -2 &&
          from_item[static_cast<size_t>(s - w)] != -2) {
        from_item[static_cast<size_t>(s)] = static_cast<long>(idx);
        prev_sum[static_cast<size_t>(s)] = s - w;
      }
    }
  }
  long best = 0;
  for (long s = cap; s >= 0; --s) {
    if (from_item[static_cast<size_t>(s)] != -2) {
      best = s;
      break;
    }
  }
  std::vector<size_t> chosen;
  for (long s = best; s > 0; s = prev_sum[static_cast<size_t>(s)]) {
    chosen.push_back(items[static_cast<size_t>(from_item[static_cast<size_t>(s)])]);
  }
  return chosen;
}

std::vector<std::vector<size_t>> FptasPeel(const std::vector<double>& weights, size_t n_bins,
                                           double epsilon) {
  std::vector<size_t> remaining(weights.size());
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<std::vector<size_t>> bins(n_bins);

  double remaining_total = std::accumulate(weights.begin(), weights.end(), 0.0);
  for (size_t b = 0; b + 1 < n_bins && !remaining.empty(); ++b) {
    const double target = remaining_total / static_cast<double>(n_bins - b);
    std::vector<size_t> chosen = SubsetNearTarget(weights, remaining, target, epsilon);
    std::set<size_t> chosen_set(chosen.begin(), chosen.end());
    std::vector<size_t> next;
    for (size_t i : remaining) {
      if (chosen_set.count(i) == 0) {
        next.push_back(i);
      }
    }
    for (size_t i : chosen) {
      remaining_total -= weights[i];
    }
    bins[b] = std::move(chosen);
    remaining = std::move(next);
  }
  bins[n_bins - 1] = std::move(remaining);
  return bins;
}

}  // namespace

std::vector<std::vector<size_t>> KarmarkarKarpBins(const std::vector<double>& weights,
                                                   size_t n_bins) {
  const size_t n_items = weights.size();
  std::vector<std::vector<size_t>> out(n_bins);
  if (n_items == 0) {
    return out;
  }
  // Item i starts as partial i: bin 0 holds it, the rest are empty.
  std::vector<KkBin> blocks(n_items * n_bins, KkBin{0.0, kNoItem, kNoItem});
  std::vector<size_t> next(n_items, kNoItem);  // the item after this one in its bin
  std::vector<KkEntry> heap;
  heap.reserve(n_items);
  for (size_t i = 0; i < n_items; ++i) {
    KkBin* bins = &blocks[i * n_bins];
    bins[0] = KkBin{weights[i], i, i};
    heap.push_back(KkEntry{bins[0].sum - bins[n_bins - 1].sum, i});
    std::push_heap(heap.begin(), heap.end(), KkEntryLess);
  }
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), KkEntryLess);
    const size_t a = heap.back().block;
    heap.pop_back();
    std::pop_heap(heap.begin(), heap.end(), KkEntryLess);
    const size_t b = heap.back().block;
    heap.pop_back();
    // Merge into a's block: a's k-th largest bin takes b's k-th smallest,
    // whose items follow a's.
    KkBin* merged = &blocks[a * n_bins];
    const KkBin* other = &blocks[b * n_bins];
    for (size_t k = 0; k < n_bins; ++k) {
      KkBin& into = merged[k];
      const KkBin& from = other[n_bins - 1 - k];
      into.sum += from.sum;
      if (from.head == kNoItem) {
        continue;
      }
      if (into.head == kNoItem) {
        into.head = from.head;
      } else {
        next[into.tail] = from.head;
      }
      into.tail = from.tail;
    }
    SortBins(merged, n_bins);
    heap.push_back(KkEntry{merged[0].sum - merged[n_bins - 1].sum, a});
    std::push_heap(heap.begin(), heap.end(), KkEntryLess);
  }
  const KkBin* root = &blocks[heap.front().block * n_bins];
  for (size_t k = 0; k < n_bins; ++k) {
    size_t count = 0;
    for (size_t item = root[k].head; item != kNoItem; item = next[item]) {
      ++count;
    }
    out[k].reserve(count);
    for (size_t item = root[k].head; item != kNoItem; item = next[item]) {
      out[k].push_back(item);
    }
  }
  return out;
}

const char* AlgorithmName(Algorithm algorithm) {
  static constexpr support::EnumNameEntry kNames[] = {
      {static_cast<int>(Algorithm::kGreedyLpt), "greedy-lpt"},
      {static_cast<int>(Algorithm::kKarmarkarKarp), "karmarkar-karp"},
      {static_cast<int>(Algorithm::kCompleteGreedy), "complete-greedy"},
      {static_cast<int>(Algorithm::kFptasSubsetSum), "fptas-subset-sum"},
  };
  return support::EnumName(kNames, algorithm);
}

StatusOr<PartitionResult> Partition(const std::vector<double>& weights, size_t n_bins,
                                    const PartitionOptions& options) {
  if (n_bins == 0) {
    return InvalidArgument("n_bins must be >= 1");
  }
  for (double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      return InvalidArgument("weights must be finite and non-negative");
    }
  }
  std::vector<std::vector<size_t>> bins;
  switch (options.algorithm) {
    case Algorithm::kGreedyLpt:
      bins = GreedyLpt(weights, n_bins);
      break;
    case Algorithm::kKarmarkarKarp:
      // The kernel keeps N bins per item in one array.
      if (!weights.empty() &&
          n_bins > std::numeric_limits<std::ptrdiff_t>::max() / sizeof(KkBin) / weights.size()) {
        return InvalidArgument("too many bins for " + std::to_string(weights.size()) + " items");
      }
      bins = KarmarkarKarpBins(weights, n_bins);
      break;
    case Algorithm::kCompleteGreedy:
      bins = CompleteGreedy(weights, n_bins, options.max_nodes);
      break;
    case Algorithm::kFptasSubsetSum:
      bins = FptasPeel(weights, n_bins, options.epsilon);
      break;
  }
  return Finalize(weights, n_bins, std::move(bins));
}

}  // namespace partition
}  // namespace bunshin
