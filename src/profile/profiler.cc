#include "src/profile/profiler.h"

#include <map>

namespace bunshin {
namespace profile {
namespace {

struct AggregatedCosts {
  std::map<std::string, uint64_t> per_function;
  uint64_t total = 0;
};

StatusOr<AggregatedCosts> RunWorkload(const ir::Module& module,
                                      const std::vector<WorkloadRun>& workload) {
  AggregatedCosts agg;
  ir::Interpreter interp(&module);
  for (const auto& run : workload) {
    ir::ExecResult result = interp.Run(run.entry, run.args);
    if (result.outcome != ir::Outcome::kReturned) {
      return FailedPrecondition("profiling run @" + run.entry +
                                " did not return normally: " + result.trap_reason +
                                result.detector);
    }
    for (const auto& [fn, cost] : result.per_function_cost) {
      agg.per_function[fn] += cost;
    }
    agg.total += result.cost;
  }
  return agg;
}

}  // namespace

std::vector<double> OverheadProfile::DistributableWeights() const {
  std::vector<double> weights;
  weights.reserve(functions.size());
  for (const auto& fn : functions) {
    weights.push_back(static_cast<double>(fn.Delta()));
  }
  return weights;
}

StatusOr<OverheadProfile> ProfileCheckDistribution(const ir::Module& baseline,
                                                   const ir::Module& instrumented,
                                                   const std::vector<WorkloadRun>& workload) {
  if (workload.empty()) {
    return InvalidArgument("profiling workload is empty");
  }
  auto base = RunWorkload(baseline, workload);
  if (!base.ok()) {
    return base.status();
  }
  auto inst = RunWorkload(instrumented, workload);
  if (!inst.ok()) {
    return inst.status();
  }

  OverheadProfile out;
  out.baseline_total = base->total;
  out.instrumented_total = inst->total;
  // Every function of the baseline gets an entry, even if cold (delta 0) —
  // the partitioner must still cover it so protection is complete.
  for (const auto& fn : baseline.functions()) {
    FunctionOverhead entry;
    entry.function = fn->name();
    auto bit = base->per_function.find(entry.function);
    if (bit != base->per_function.end()) {
      entry.baseline_cost = bit->second;
    }
    auto iit = inst->per_function.find(entry.function);
    if (iit != inst->per_function.end()) {
      entry.instrumented_cost = iit->second;
    }
    out.functions.push_back(std::move(entry));
  }
  return out;
}

}  // namespace profile
}  // namespace bunshin
