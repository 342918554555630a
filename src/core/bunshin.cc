#include "src/core/bunshin.h"

#include <algorithm>

#include "src/ir/verifier.h"
#include "src/sanitizer/asan_pass.h"
#include "src/sanitizer/msan_pass.h"
#include "src/sanitizer/ubsan_pass.h"

namespace bunshin {
namespace core {
namespace {

std::unique_ptr<san::InstrumentationPass> MakePass(san::SanitizerId id) {
  switch (id) {
    case san::SanitizerId::kASan:
      return std::make_unique<san::AsanPass>();
    case san::SanitizerId::kMSan:
      return std::make_unique<san::MsanPass>();
    case san::SanitizerId::kUBSan:
      return std::make_unique<san::UbsanPass>();
    default:
      return nullptr;
  }
}

}  // namespace

std::vector<ir::ExecEvent> FilterObservable(const std::vector<ir::ExecEvent>& events) {
  std::vector<ir::ExecEvent> out;
  out.reserve(events.size());
  for (const auto& event : events) {
    if (event.callee.rfind("__", 0) == 0) {
      continue;  // sanitizer-internal (metadata helpers, report plumbing)
    }
    out.push_back(event);
  }
  return out;
}

StatusOr<IrNvxSystem> IrNvxSystem::CreateCheckDistributed(
    const ir::Module& baseline, san::SanitizerId sanitizer,
    const std::vector<profile::WorkloadRun>& profiling_workload, const Options& options) {
  if (options.n_variants == 0) {
    return InvalidArgument("n_variants must be >= 1");
  }
  Status verified = ir::VerifyModule(baseline);
  if (!verified.ok()) {
    return verified;
  }

  auto pass = MakePass(sanitizer);
  if (pass == nullptr) {
    return InvalidArgument(std::string("no IR pass for sanitizer ") +
                           san::SanitizerName(sanitizer));
  }

  // Instrument the whole program once.
  std::unique_ptr<ir::Module> instrumented = baseline.Clone();
  auto stats = pass->Run(instrumented.get());
  if (!stats.ok()) {
    return stats.status();
  }
  verified = ir::VerifyModule(*instrumented);
  if (!verified.ok()) {
    return Internal("instrumented module failed verification: " + verified.message());
  }

  // Profile baseline vs instrumented (Figure 1's cost-profiling stage).
  auto prof = profile::ProfileCheckDistribution(baseline, *instrumented, profiling_workload);
  if (!prof.ok()) {
    return prof.status();
  }

  distribution::CheckDistributionOptions dist_options;
  dist_options.partition = options.partition;
  auto plan = distribution::PlanCheckDistribution(*prof, options.n_variants, dist_options);
  if (!plan.ok()) {
    return plan.status();
  }

  auto variants = distribution::BuildCheckVariants(*instrumented, *plan);
  if (!variants.ok()) {
    return variants.status();
  }
  for (const auto& variant : *variants) {
    verified = ir::VerifyModule(*variant);
    if (!verified.ok()) {
      return Internal("variant failed verification after de-instrumentation: " +
                      verified.message());
    }
  }

  IrNvxSystem system;
  system.variants_ = std::move(*variants);
  system.check_plan_ = std::move(*plan);
  system.fuel_ = options.interpreter_fuel;
  return system;
}

StatusOr<IrNvxSystem> IrNvxSystem::CreateSanitizerDistributed(
    const ir::Module& baseline, const std::vector<san::SanitizerId>& sanitizers,
    const Options& options) {
  Status verified = ir::VerifyModule(baseline);
  if (!verified.ok()) {
    return verified;
  }
  auto plan = distribution::PlanWholeSanitizerDistribution(sanitizers, options.n_variants);
  if (!plan.ok()) {
    return plan.status();
  }

  IrNvxSystem system;
  system.fuel_ = options.interpreter_fuel;
  for (const auto& group : plan->groups) {
    auto variant = baseline.Clone();
    std::vector<std::string> names;
    for (size_t item : group) {
      const san::SanitizerId id = sanitizers[item];
      names.push_back(san::SanitizerName(id));
      auto pass = MakePass(id);
      if (pass == nullptr) {
        return InvalidArgument(std::string("no IR pass for sanitizer ") +
                               san::SanitizerName(id));
      }
      auto stats = pass->Run(variant.get());
      if (!stats.ok()) {
        return stats.status();
      }
    }
    verified = ir::VerifyModule(*variant);
    if (!verified.ok()) {
      return Internal("sanitizer variant failed verification: " + verified.message());
    }
    system.sanitizer_groups_.push_back(std::move(names));
    system.variants_.push_back(std::move(variant));
  }
  return system;
}

StatusOr<IrNvxSystem> IrNvxSystem::CreateUbsanDistributed(const ir::Module& baseline,
                                                          const Options& options) {
  Status verified = ir::VerifyModule(baseline);
  if (!verified.ok()) {
    return verified;
  }
  // Distribute only the sub-sanitizers that have IR passes.
  std::vector<distribution::ProtectionUnit> units;
  for (const auto& sub : san::UBSanSubSanitizers()) {
    if (sub.has_ir_pass) {
      units.push_back({sub.name, sub.mean_overhead});
    }
  }
  auto plan = distribution::PlanSanitizerDistribution(units, options.n_variants, nullptr);
  if (!plan.ok()) {
    return plan.status();
  }

  IrNvxSystem system;
  system.fuel_ = options.interpreter_fuel;
  for (const auto& group : plan->groups) {
    san::UbsanOptions ubsan_options;
    std::vector<std::string> names;
    for (size_t item : group) {
      ubsan_options.enabled.insert(units[item].name);
      names.push_back(units[item].name);
    }
    auto variant = baseline.Clone();
    if (!ubsan_options.enabled.empty()) {
      san::UbsanPass pass(ubsan_options);
      auto stats = pass.Run(variant.get());
      if (!stats.ok()) {
        return stats.status();
      }
    }
    verified = ir::VerifyModule(*variant);
    if (!verified.ok()) {
      return Internal("ubsan variant failed verification: " + verified.message());
    }
    system.sanitizer_groups_.push_back(std::move(names));
    system.variants_.push_back(std::move(variant));
  }
  return system;
}

DetailedNvxRun IrNvxSystem::RunDetailed(const std::string& entry,
                                        const std::vector<int64_t>& args) const {
  DetailedNvxRun detailed;
  NvxResult& result = detailed.result;

  std::vector<ir::ExecResult>& runs = detailed.runs;
  runs.reserve(variants_.size());
  for (const auto& variant : variants_) {
    ir::Interpreter interp(variant.get());
    interp.set_fuel(fuel_);
    runs.push_back(interp.Run(entry, args));
  }

  // Detection anywhere stops the whole system (monitor aborts all variants).
  for (size_t v = 0; v < runs.size(); ++v) {
    if (runs[v].outcome == ir::Outcome::kDetected) {
      result.outcome = NvxOutcome::kDetected;
      result.detecting_variant = v;
      result.detector = runs[v].detector;
      return detailed;
    }
  }

  // A crash in any variant while others continue is a divergence.
  for (size_t v = 0; v < runs.size(); ++v) {
    if (runs[v].outcome != ir::Outcome::kReturned) {
      result.outcome = NvxOutcome::kDiverged;
      result.diverging_variant = v;
      result.divergence_detail =
          "variant " + std::to_string(v) + " aborted: " + runs[v].trap_reason;
      return detailed;
    }
  }

  // Compare observable behavior: event streams and return values.
  const std::vector<ir::ExecEvent> leader_events = FilterObservable(runs[0].events);
  for (size_t v = 1; v < runs.size(); ++v) {
    const std::vector<ir::ExecEvent> events = FilterObservable(runs[v].events);
    if (events.size() != leader_events.size()) {
      result.outcome = NvxOutcome::kDiverged;
      result.diverging_variant = v;
      result.divergence_detail = "variant " + std::to_string(v) + " event count " +
                                 std::to_string(events.size()) + " vs leader " +
                                 std::to_string(leader_events.size());
      return detailed;
    }
    for (size_t i = 0; i < events.size(); ++i) {
      if (!(events[i] == leader_events[i])) {
        result.outcome = NvxOutcome::kDiverged;
        result.diverging_variant = v;
        result.divergence_detail = "variant " + std::to_string(v) + " event " +
                                   std::to_string(i) + ": " + events[i].callee + " vs " +
                                   leader_events[i].callee;
        return detailed;
      }
    }
    if (runs[v].return_value != runs[0].return_value) {
      result.outcome = NvxOutcome::kDiverged;
      result.diverging_variant = v;
      result.divergence_detail = "return value mismatch";
      return detailed;
    }
  }

  result.outcome = NvxOutcome::kOk;
  result.return_value = runs[0].return_value;
  return detailed;
}

}  // namespace core
}  // namespace bunshin
