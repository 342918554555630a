#include "src/distribution/distribution.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "src/slicing/slicer.h"

namespace bunshin {
namespace distribution {

StatusOr<CheckDistributionPlan> PlanCheckDistribution(const profile::OverheadProfile& profile,
                                                      size_t n_variants) {
  if (n_variants == 0) {
    return InvalidArgument("need at least one variant");
  }
  if (profile.functions.empty()) {
    return InvalidArgument("profile has no functions");
  }

  const std::vector<double> weights = profile.DistributableWeights();
  auto part = partition::Partition(weights, n_variants);
  if (!part.ok()) {
    return part.status();
  }

  CheckDistributionPlan plan;
  plan.n_variants = n_variants;
  plan.partition = std::move(*part);
  plan.protected_functions.resize(n_variants);
  plan.predicted_overhead.resize(n_variants, 0.0);
  for (size_t v = 0; v < n_variants; ++v) {
    for (size_t item : plan.partition.bins[v]) {
      plan.protected_functions[v].push_back(profile.functions[item].function);
    }
    if (profile.baseline_total > 0) {
      plan.predicted_overhead[v] =
          plan.partition.bin_sums[v] / static_cast<double>(profile.baseline_total);
    }
  }
  return plan;
}

StatusOr<std::vector<std::unique_ptr<ir::Module>>> BuildCheckVariants(
    const ir::Module& instrumented, const CheckDistributionPlan& plan) {
  std::vector<std::unique_ptr<ir::Module>> variants;
  variants.reserve(plan.n_variants);
  for (size_t v = 0; v < plan.n_variants; ++v) {
    std::unique_ptr<ir::Module> variant = instrumented.Clone();
    const std::set<std::string> keep(plan.protected_functions[v].begin(),
                                     plan.protected_functions[v].end());
    for (const auto& fn : variant->functions()) {
      if (keep.count(fn->name()) == 0) {
        slicing::RemoveChecks(fn.get());
      }
    }
    variants.push_back(std::move(variant));
  }
  return variants;
}

StatusOr<SanitizerDistributionPlan> PlanSanitizerDistribution(
    const std::vector<ProtectionUnit>& units, size_t n_variants, const ConflictFn& conflicts) {
  if (n_variants == 0) {
    return InvalidArgument("need at least one variant");
  }
  if (units.empty()) {
    return InvalidArgument("no protection units to distribute");
  }

  auto conflict = [&](size_t a, size_t b) {
    return conflicts != nullptr && conflicts(units[a], units[b]);
  };
  auto fits = [&](const std::vector<size_t>& group, size_t item) {
    return std::none_of(group.begin(), group.end(),
                        [&](size_t member) { return conflict(member, item); });
  };

  // LPT with feasibility: heaviest unit first, into the lightest group that
  // accepts it.
  std::vector<size_t> order(units.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return units[a].overhead > units[b].overhead; });

  std::vector<std::vector<size_t>> groups(n_variants);
  std::vector<double> sums(n_variants, 0.0);
  for (size_t item : order) {
    std::vector<size_t> group_order(n_variants);
    std::iota(group_order.begin(), group_order.end(), 0);
    std::sort(group_order.begin(), group_order.end(),
              [&](size_t a, size_t b) { return sums[a] < sums[b]; });
    bool placed = false;
    for (size_t g : group_order) {
      if (fits(groups[g], item)) {
        groups[g].push_back(item);
        sums[g] += units[item].overhead;
        placed = true;
        break;
      }
    }
    if (!placed) {
      return FailedPrecondition("unit '" + units[item].name + "' conflicts with every group; " +
                                std::to_string(n_variants) + " variants are not enough");
    }
  }

  // Local search: single-item moves and pairwise swaps that lower the max
  // group sum while preserving feasibility.
  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < 64) {
    improved = false;
    const size_t heaviest = static_cast<size_t>(
        std::max_element(sums.begin(), sums.end()) - sums.begin());
    for (size_t i = 0; i < groups[heaviest].size() && !improved; ++i) {
      const size_t item = groups[heaviest][i];
      for (size_t g = 0; g < n_variants && !improved; ++g) {
        if (g == heaviest) {
          continue;
        }
        // Move item -> g if it reduces the max.
        if (fits(groups[g], item) &&
            sums[g] + units[item].overhead < sums[heaviest] - 1e-12) {
          groups[heaviest].erase(groups[heaviest].begin() + static_cast<long>(i));
          groups[g].push_back(item);
          sums[heaviest] -= units[item].overhead;
          sums[g] += units[item].overhead;
          improved = true;
        }
      }
    }
  }

  SanitizerDistributionPlan plan;
  plan.n_variants = n_variants;
  plan.groups = std::move(groups);
  plan.group_overheads = std::move(sums);
  plan.max_overhead =
      *std::max_element(plan.group_overheads.begin(), plan.group_overheads.end());
  for (auto& group : plan.groups) {
    std::sort(group.begin(), group.end());
  }
  return plan;
}

StatusOr<SanitizerDistributionPlan> PlanWholeSanitizerDistribution(
    const std::vector<san::SanitizerId>& sanitizers, size_t n_variants) {
  std::vector<ProtectionUnit> units;
  units.reserve(sanitizers.size());
  for (san::SanitizerId id : sanitizers) {
    const auto& info = san::GetSanitizer(id);
    units.push_back({info.name, info.mean_overhead});
  }
  // Conflict lookup goes through the catalog by name.
  auto conflicts = [](const ProtectionUnit& a, const ProtectionUnit& b) {
    san::SanitizerId ida = san::SanitizerId::kASan;
    san::SanitizerId idb = san::SanitizerId::kASan;
    bool found_a = false;
    bool found_b = false;
    for (const auto& info : san::AllSanitizers()) {
      if (info.name == a.name) {
        ida = info.id;
        found_a = true;
      }
      if (info.name == b.name) {
        idb = info.id;
        found_b = true;
      }
    }
    return found_a && found_b && san::Conflicts(ida, idb);
  };
  return PlanSanitizerDistribution(units, n_variants, conflicts);
}

StatusOr<SanitizerDistributionPlan> PlanUbsanDistribution(size_t n_variants) {
  std::vector<ProtectionUnit> units;
  for (const auto& sub : san::UBSanSubSanitizers()) {
    units.push_back({sub.name, sub.mean_overhead});
  }
  return PlanSanitizerDistribution(units, n_variants, nullptr);
}

}  // namespace distribution
}  // namespace bunshin
