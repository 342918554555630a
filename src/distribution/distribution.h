// The automated variant generator (Bunshin §3.2, Figure 1).
//
// Two protection distribution principles:
//
//  * Check distribution: one sanitizer, its per-function overhead profile is
//    partitioned into N balanced subsets; variant i keeps the checks of the
//    functions in subset i and has every other function de-instrumented via
//    the slicing pass. Metadata maintenance is kept everywhere.
//
//  * Sanitizer distribution: K protection units (whole sanitizers or UBSan
//    sub-sanitizers) are partitioned into N balanced, conflict-free groups;
//    variant i is the program built with group i's units.
//
// Both reduce to the balanced N-partition of src/partition, the sanitizer
// case with the extra constraint that conflicting units never share a group.
#ifndef BUNSHIN_SRC_DISTRIBUTION_DISTRIBUTION_H_
#define BUNSHIN_SRC_DISTRIBUTION_DISTRIBUTION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/partition/partition.h"
#include "src/profile/profiler.h"
#include "src/sanitizer/sanitizer.h"
#include "src/support/status.h"

namespace bunshin {
namespace distribution {

// ---------------------------------------------------------------------------
// Check distribution
// ---------------------------------------------------------------------------

struct CheckDistributionPlan {
  size_t n_variants = 0;
  // protected_functions[i] = names of the functions whose checks variant i
  // keeps. Disjoint across variants; union covers every function.
  std::vector<std::vector<std::string>> protected_functions;
  // Predicted per-variant overhead fraction (distributed delta / baseline),
  // excluding the residual.
  std::vector<double> predicted_overhead;
  partition::PartitionResult partition;
};

// Plans which functions each variant protects, from a measured profile,
// with the default partition options (Karmarkar–Karp).
StatusOr<CheckDistributionPlan> PlanCheckDistribution(const profile::OverheadProfile& profile,
                                                      size_t n_variants);

// Materializes the variants: clones the *fully instrumented* module N times
// and de-instruments (removes checks from) every function not assigned to
// the variant. This mirrors §3.2 "variant compiling is essentially a
// de-instrumentation process".
StatusOr<std::vector<std::unique_ptr<ir::Module>>> BuildCheckVariants(
    const ir::Module& instrumented, const CheckDistributionPlan& plan);

// ---------------------------------------------------------------------------
// Sanitizer distribution
// ---------------------------------------------------------------------------

// A unit of protection P_i for sanitizer distribution: a whole sanitizer or a
// sub-sanitizer, with its measured/calibrated whole-program overhead.
struct ProtectionUnit {
  std::string name;
  double overhead = 0.0;
};

// Returns true when units `a` and `b` must not be enforced in one variant.
using ConflictFn = std::function<bool(const ProtectionUnit&, const ProtectionUnit&)>;

struct SanitizerDistributionPlan {
  size_t n_variants = 0;
  // groups[i] = indices into the input unit vector. Disjoint cover.
  std::vector<std::vector<size_t>> groups;
  std::vector<double> group_overheads;
  double max_overhead = 0.0;
};

// Partitions units into n conflict-free balanced groups (LPT with a
// feasibility filter, then a local-search rebalance). Fails when the
// conflict graph needs more than n groups (e.g. chromatic number > n).
StatusOr<SanitizerDistributionPlan> PlanSanitizerDistribution(
    const std::vector<ProtectionUnit>& units, size_t n_variants,
    const ConflictFn& conflicts = nullptr);

// Convenience: plans distribution of whole sanitizers using the catalog's
// conflict matrix and mean overheads.
StatusOr<SanitizerDistributionPlan> PlanWholeSanitizerDistribution(
    const std::vector<san::SanitizerId>& sanitizers, size_t n_variants);

// Convenience: plans distribution of UBSan's sub-sanitizers (no conflicts).
StatusOr<SanitizerDistributionPlan> PlanUbsanDistribution(size_t n_variants);

}  // namespace distribution
}  // namespace bunshin

#endif  // BUNSHIN_SRC_DISTRIBUTION_DISTRIBUTION_H_
