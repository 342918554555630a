// Overhead profiling (Bunshin §3.2 / §4.1 "Profiling").
//
// Check distribution needs the per-function cost of a sanitizer's checks:
// we run the baseline module and the instrumented module on the same
// representative workload and diff the per-function weighted costs. The
// resulting OverheadProfile is the input to the overhead distribution
// algorithm (src/partition) — the per-function deltas are the weights, and
// the unsplittable remainder (metadata in functions, runtime init/reporting)
// is O_residual of Appendix A.2.
//
// Sanitizer distribution only needs whole-program overheads per sanitizer
// (§4.1: "no extra instrumentation is needed"); those come from the
// sanitizer catalog's calibrated means (src/sanitizer/sanitizer.h).
#ifndef BUNSHIN_SRC_PROFILE_PROFILER_H_
#define BUNSHIN_SRC_PROFILE_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/interp.h"
#include "src/ir/ir.h"
#include "src/support/status.h"

namespace bunshin {
namespace profile {

// One invocation of the program in the profiling workload (the paper uses the
// SPEC `train` dataset; our synthetic programs take entry + args).
struct WorkloadRun {
  std::string entry;
  std::vector<int64_t> args;
};

struct FunctionOverhead {
  std::string function;
  uint64_t baseline_cost = 0;
  uint64_t instrumented_cost = 0;

  // Absolute extra cost attributable to instrumentation in this function.
  uint64_t Delta() const {
    return instrumented_cost > baseline_cost ? instrumented_cost - baseline_cost : 0;
  }
};

struct OverheadProfile {
  std::vector<FunctionOverhead> functions;
  uint64_t baseline_total = 0;
  uint64_t instrumented_total = 0;

  // Weights for the partitioner, aligned with `functions`.
  std::vector<double> DistributableWeights() const;
};

// Runs both modules on the workload and produces the per-function profile.
// Fails if any run does not return normally from either module (a profiling
// workload must be benign).
StatusOr<OverheadProfile> ProfileCheckDistribution(const ir::Module& baseline,
                                                   const ir::Module& instrumented,
                                                   const std::vector<WorkloadRun>& workload);

}  // namespace profile
}  // namespace bunshin

#endif  // BUNSHIN_SRC_PROFILE_PROFILER_H_
