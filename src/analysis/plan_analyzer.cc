#include "src/analysis/plan_analyzer.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/trace_analyzer.h"
#include "src/distribution/distribution.h"
#include "src/nxe/engine.h"
#include "src/profile/profiler.h"
#include "src/sanitizer/sanitizer.h"
#include "src/workload/funcprofile.h"
#include "src/workload/tracegen.h"

namespace bunshin {
namespace analysis {
namespace {

std::string SpecLoc(size_t v) { return "spec " + std::to_string(v); }
std::string SubsetLoc(size_t v) { return "subset " + std::to_string(v); }
std::string GroupLoc(size_t v) { return "group " + std::to_string(v); }

// Renders the first kShownNames of a list `total` names long (`names` holds
// at least those), then "... and N more" — coverage rules report one
// diagnostic per defect class, not one per function.
constexpr size_t kShownNames = 8;

std::string NameList(const std::vector<std::string>& names, size_t total) {
  std::string out;
  const size_t shown = std::min({names.size(), total, kShownNames});
  for (size_t i = 0; i < shown; ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += names[i];
  }
  if (total > shown) {
    out += " ... and " + std::to_string(total - shown) + " more";
  }
  return out;
}

std::string NameList(const std::vector<std::string>& names) {
  return NameList(names, names.size());
}

std::optional<san::SanitizerId> SanitizerIdByName(const std::string& name) {
  for (const san::SanitizerInfo& info : san::AllSanitizers()) {
    if (info.name == name) {
      return info.id;
    }
  }
  return std::nullopt;
}

// --- plan/* well-formedness --------------------------------------------------

// A plan names its own trace shape, and trace construction sizes buffers
// from it, so a hostile plan could ask for any amount of memory. Variants
// and threads are bounded by the engine's session width; the action budget
// covers every variant plus the baseline trace and sits far above the
// largest in-repo session (under 18k actions).
constexpr double kMaxSessionActions = 1 << 22;
// Check distribution synthesizes one profile entry per function; the
// largest catalog program has 2,600.
constexpr size_t kMaxFunctions = 1 << 16;

void CheckTraceShape(const char* target, size_t threads, double template_actions,
                     size_t n_specs, AnalysisReport* report) {
  if (threads > nxe::kMaxSessionWidth) {
    report->AddError("plan/trace-shape", target,
                     std::to_string(threads) + " threads exceed the engine's " +
                         std::to_string(nxe::kMaxSessionWidth) + "-thread limit",
                     "model fewer threads per variant");
  }
  const double session_actions = static_cast<double>(n_specs + 1) * template_actions;
  if (!(session_actions <= kMaxSessionActions)) {  // NaN fails too
    report->AddError("plan/trace-shape", target,
                     "the session's " + std::to_string(n_specs + 1) + " traces would hold " +
                         api::CacheKeyDouble(session_actions) + " actions, above the " +
                         api::CacheKeyDouble(kMaxSessionActions) + "-action budget",
                     "use finite, non-negative shape fields sized like the catalog's");
  }
}

void CheckWellFormedness(const api::VariantPlan& plan, AnalysisReport* report) {
  const bool has_bench = plan.benchmark.has_value();
  const bool has_server = plan.server.has_value();
  if (!has_bench && !has_server) {
    report->AddError("plan/no-target", "", "plan has neither a benchmark nor a server target",
                     "set exactly one of VariantPlan::benchmark / VariantPlan::server");
  }
  if (has_bench && has_server) {
    report->AddError("plan/dual-target", "",
                     "plan has both a benchmark and a server target; trace construction is "
                     "ambiguous",
                     "set exactly one of VariantPlan::benchmark / VariantPlan::server");
  }
  if (plan.specs.empty()) {
    report->AddError("plan/no-variants", "", "plan has no variant specs",
                     "plan at least one variant");
  }
  if (plan.specs.size() > nxe::kMaxSessionWidth) {
    report->AddError("plan/trace-shape", "",
                     std::to_string(plan.specs.size()) + " specs exceed the engine's " +
                         std::to_string(nxe::kMaxSessionWidth) + "-variant limit",
                     "plan fewer variants");
  }
  if (has_bench) {
    CheckTraceShape("benchmark", std::max<size_t>(1, plan.benchmark->threads),
                    workload::TemplateActions(*plan.benchmark), plan.specs.size(), report);
    if (plan.benchmark->n_functions > kMaxFunctions) {
      report->AddError("plan/trace-shape", "benchmark",
                       std::to_string(plan.benchmark->n_functions) + " functions exceed the " +
                           std::to_string(kMaxFunctions) + "-function limit",
                       "size n_functions like the catalog's programs");
    }
  }
  if (has_server) {
    CheckTraceShape("server", std::max<size_t>(1, plan.server->threads),
                    workload::TemplateActions(*plan.server), plan.specs.size(), report);
  }
  if (plan.labels.size() != plan.specs.size()) {
    report->AddError("plan/labels-mismatch", "",
                     std::to_string(plan.labels.size()) + " label(s) for " +
                         std::to_string(plan.specs.size()) +
                         " spec(s); backends index labels by variant slot",
                     "emit exactly one label per spec");
  }
  if (has_server && plan.strategy != api::DistributionStrategy::kNone) {
    report->AddError("plan/server-distribution", "",
                     "server targets support identical clones only (no distribution)",
                     "use DistributionStrategy::kNone for server targets");
  }
  if (plan.requested_variants != 0 && plan.specs.size() > plan.requested_variants) {
    report->AddWarning("plan/requested-variants", "",
                       "plan carries " + std::to_string(plan.specs.size()) +
                           " specs but only " + std::to_string(plan.requested_variants) +
                           " were requested; planners only ever clamp downward",
                       "regenerate the plan or fix requested_variants");
  }
  for (size_t v = 0; v < plan.specs.size(); ++v) {
    // Each listed sanitizer adds its runtime's syscalls to the trace, and
    // enforceability is checked pairwise, so a repeat only costs work.
    std::set<san::SanitizerId> listed;
    for (san::SanitizerId id : plan.specs[v].sanitizers) {
      if (!listed.insert(id).second) {
        report->AddError("plan/trace-shape", SpecLoc(v),
                         std::string("the spec lists ") + san::SanitizerName(id) + " twice",
                         "list each sanitizer once");
        break;
      }
    }
    const double scale = plan.specs[v].compute_scale;
    if (scale <= 0.0) {
      report->AddError("plan/compute-scale", SpecLoc(v),
                       "compute_scale " + api::CacheKeyDouble(scale) +
                           " is not positive; the engine's virtual clock would stall or run "
                           "backwards",
                       "compute scales are 1.0 + overhead fractions, always >= 1.0");
    } else if (scale < 1.0) {
      report->AddWarning("plan/compute-scale", SpecLoc(v),
                         "compute_scale " + api::CacheKeyDouble(scale) +
                             " < 1.0 claims an instrumented variant outruns the baseline",
                         "compute scales are 1.0 + overhead fractions, always >= 1.0");
    }
  }
  for (const api::DetectInjection& injection : plan.detect_injections) {
    if (injection.variant >= plan.specs.size()) {
      report->AddError("plan/injection-range", "detect injection",
                       "variant index " + std::to_string(injection.variant) +
                           " out of range (have " + std::to_string(plan.specs.size()) +
                           " variants)",
                       "target an existing variant slot");
    }
  }
  for (const api::DivergeInjection& injection : plan.diverge_injections) {
    if (injection.variant >= plan.specs.size()) {
      report->AddError("plan/injection-range", "diverge injection",
                       "variant index " + std::to_string(injection.variant) +
                           " out of range (have " + std::to_string(plan.specs.size()) +
                           " variants)",
                       "target an existing variant slot");
    }
  }
  if (plan.engine_config.contention_variants != 0 &&
      plan.engine_config.contention_variants < plan.specs.size()) {
    report->AddWarning("plan/contention-width", "",
                       "contention_variants " +
                           std::to_string(plan.engine_config.contention_variants) +
                           " is below the plan's " + std::to_string(plan.specs.size()) +
                           " variants; the engine silently widens it, so the configured value "
                           "misleads",
                       "set contention_variants to 0 (auto) or >= n_variants");
  }
}

// --- coverage/* for check distribution (§3.2) --------------------------------

void CheckCheckDistribution(const api::VariantPlan& plan, AnalysisReport* report) {
  if (!plan.check_plan.has_value()) {
    report->AddError("coverage/missing-plan", "",
                     "strategy is check-distribution but the plan carries no "
                     "CheckDistributionPlan",
                     "plan with NvxBuilder or attach the distribution output");
    return;
  }
  const distribution::CheckDistributionPlan& cp = *plan.check_plan;
  if (cp.protected_functions.size() != plan.specs.size()) {
    report->AddError("coverage/partition-arity", "",
                     std::to_string(cp.protected_functions.size()) +
                         " protected-function subset(s) for " +
                         std::to_string(plan.specs.size()) + " variant(s)",
                     "one subset per variant, in slot order");
    return;
  }
  if (!plan.benchmark.has_value() || report->HasRule("plan/trace-shape")) {
    return;  // no target, or a reported shape error that can make synthesis unbounded
  }
  // Recompute the ground-truth function set the same way the planner did:
  // profile synthesis is deterministic in (benchmark, sanitizer, seed).
  const profile::OverheadProfile profile =
      workload::SynthesizeFunctionProfile(*plan.benchmark, plan.check_sanitizer, plan.seed);
  // Index it once: the names, distinct by construction, sorted (the order
  // gaps are listed in), and per sorted position the subset that claimed it.
  // A plan's names are found by binary search: no allocation, and at most
  // log2(n) + 1 comparisons however the names are crafted.
  constexpr size_t kUnowned = static_cast<size_t>(-1);
  std::vector<std::string_view> ground;
  ground.reserve(profile.functions.size());
  for (const profile::FunctionOverhead& fn : profile.functions) {
    ground.emplace_back(fn.function);
  }
  std::sort(ground.begin(), ground.end());
  std::vector<size_t> owner(ground.size(), kUnowned);
  std::vector<std::string> unknown;  // the first kShownNames only
  size_t n_unknown = 0;
  for (size_t v = 0; v < cp.protected_functions.size(); ++v) {
    for (const std::string& name : cp.protected_functions[v]) {
      const auto it = std::lower_bound(ground.begin(), ground.end(), std::string_view(name));
      if (it == ground.end() || *it != name) {
        if (n_unknown++ < kShownNames) {
          unknown.push_back(name + " (" + SubsetLoc(v) + ")");
        }
        continue;
      }
      size_t& first = owner[static_cast<size_t>(it - ground.begin())];
      if (first != kUnowned) {
        report->AddError("coverage/overlap", SubsetLoc(v),
                         "function '" + name + "' is already protected by " +
                             SubsetLoc(first) +
                             "; overlapping checks double-pay overhead and break the "
                             "disjointness claim",
                         "assign every function to exactly one variant");
        continue;
      }
      first = v;
    }
  }
  if (n_unknown != 0) {
    report->AddError("coverage/unknown-function", "",
                     "subset(s) protect function(s) absent from the profiled set: " +
                         NameList(unknown, n_unknown),
                     "partition exactly the profiled functions");
  }
  std::vector<std::string> gaps;  // the first kShownNames only
  size_t n_gaps = 0;
  for (size_t i = 0; i < ground.size(); ++i) {
    if (owner[i] == kUnowned && n_gaps++ < kShownNames) {
      gaps.emplace_back(ground[i]);
    }
  }
  if (n_gaps != 0) {
    report->AddError("coverage/gap", "",
                     "profiled function(s) protected by no variant: " +
                         NameList(gaps, n_gaps) +
                         "; an attack on them is invisible to every variant",
                     "the subsets must cover the full profiled function set");
  }
}

// --- coverage/* for sanitizer / UBSan-sub distribution -----------------------

void CheckGroupDuplicates(const std::vector<std::vector<std::string>>& groups,
                          AnalysisReport* report) {
  std::map<std::string, size_t> owner;
  for (size_t g = 0; g < groups.size(); ++g) {
    bool reported = false;  // one diagnostic per group, however long its list
    for (const std::string& name : groups[g]) {
      const auto [it, inserted] = owner.emplace(name, g);
      if (!inserted && !reported) {
        reported = true;
        report->AddError("coverage/group-duplicate", GroupLoc(g),
                         "'" + name + "' already appears in " + GroupLoc(it->second),
                         "each protection unit belongs to exactly one group");
      }
    }
  }
}

void CheckSanitizerDistribution(const api::VariantPlan& plan, AnalysisReport* report) {
  if (plan.sanitizer_groups.empty()) {
    report->AddError("coverage/missing-plan", "",
                     "strategy is sanitizer-distribution but the plan carries no groups",
                     "plan with NvxBuilder or attach the distribution output");
    return;
  }
  CheckGroupDuplicates(plan.sanitizer_groups, report);
  std::set<std::string> covered;
  for (size_t g = 0; g < plan.sanitizer_groups.size(); ++g) {
    std::vector<san::SanitizerId> ids;
    for (const std::string& name : plan.sanitizer_groups[g]) {
      const std::optional<san::SanitizerId> id = SanitizerIdByName(name);
      if (!id.has_value()) {
        report->AddError("coverage/unknown-sanitizer", GroupLoc(g),
                         "'" + name + "' is not in the sanitizer catalog",
                         "groups name catalog sanitizers");
        continue;
      }
      covered.insert(name);
      // Repeats are coverage/group-duplicate's; keeping one of each bounds
      // the pairwise conflict check by the catalog size.
      if (std::find(ids.begin(), ids.end(), *id) == ids.end()) {
        ids.push_back(*id);
      }
    }
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = a + 1; b < ids.size(); ++b) {
        if (san::Conflicts(ids[a], ids[b])) {
          report->AddError("coverage/group-conflict", GroupLoc(g),
                           std::string(san::SanitizerName(ids[a])) + " and " +
                               san::SanitizerName(ids[b]) +
                               " claim clashing address-space layouts and cannot share a "
                               "variant (§3.1)",
                           "move one of them to another group");
        }
      }
    }
  }
  // Every requested sanitizer the target supports must be covered somewhere.
  std::vector<std::string> missing;
  for (const san::SanitizerId id : plan.sanitizers) {
    if (id == san::SanitizerId::kMSan && plan.benchmark.has_value() &&
        !plan.benchmark->overheads.msan_supported) {
      continue;  // the planner legitimately drops MSan here (gcc case)
    }
    const std::string name = san::SanitizerName(id);
    if (covered.find(name) == covered.end()) {
      missing.push_back(name);
    }
  }
  if (!missing.empty()) {
    report->AddError("coverage/sanitizer-gap", "",
                     "requested sanitizer(s) enforced by no group: " + NameList(missing),
                     "distribute every supported requested sanitizer");
  }
}

void CheckUbsanDistribution(const api::VariantPlan& plan, AnalysisReport* report) {
  if (plan.sanitizer_groups.empty()) {
    report->AddError("coverage/missing-plan", "",
                     "strategy is ubsan-sub-distribution but the plan carries no groups",
                     "plan with NvxBuilder or attach the distribution output");
    return;
  }
  CheckGroupDuplicates(plan.sanitizer_groups, report);
  std::set<std::string> catalog;
  for (const san::SubSanitizer& sub : san::UBSanSubSanitizers()) {
    catalog.insert(sub.name);
  }
  std::set<std::string> covered;
  for (size_t g = 0; g < plan.sanitizer_groups.size(); ++g) {
    for (const std::string& name : plan.sanitizer_groups[g]) {
      if (catalog.find(name) == catalog.end()) {
        report->AddError("coverage/unknown-sanitizer", GroupLoc(g),
                         "'" + name + "' is not a UBSan sub-sanitizer",
                         "groups name the 19 catalog sub-sanitizers");
        continue;
      }
      covered.insert(name);
    }
  }
  std::vector<std::string> missing;
  for (const std::string& name : catalog) {
    if (covered.find(name) == covered.end()) {
      missing.push_back(name);
    }
  }
  if (!missing.empty()) {
    report->AddError("coverage/ubsan-gap", "",
                     "sub-sanitizer(s) enforced by no variant: " + NameList(missing) +
                         "; undefined behavior of those classes goes undetected",
                     "distribute all 19 sub-sanitizers (§5.5)");
  }
}

void CheckCoverage(const api::VariantPlan& plan, AnalysisReport* report) {
  switch (plan.strategy) {
    case api::DistributionStrategy::kNone:
      break;  // identical clones claim no distributed coverage
    case api::DistributionStrategy::kCheck:
      CheckCheckDistribution(plan, report);
      break;
    case api::DistributionStrategy::kSanitizer:
      CheckSanitizerDistribution(plan, report);
      break;
    case api::DistributionStrategy::kUbsanSub:
      CheckUbsanDistribution(plan, report);
      break;
  }
  // Independent of strategy: the sanitizer set each spec actually carries
  // (which drives its runtime's introduced syscalls) must be collectively
  // enforceable — a wire plan whose specs pair conflicting sanitizers could
  // not exist as a real binary. The check is pairwise, so it waits for
  // bounded sanitizer lists.
  if (report->HasRule("plan/trace-shape")) {
    return;
  }
  for (size_t v = 0; v < plan.specs.size(); ++v) {
    if (!san::CollectivelyEnforceable(plan.specs[v].sanitizers)) {
      report->AddError("coverage/enforceable", SpecLoc(v),
                       "the spec's sanitizer set is not collectively enforceable "
                       "(conflicting address-space claims)",
                       "split conflicting sanitizers across variants");
    }
  }
}

}  // namespace

AnalysisReport AnalyzePlan(const api::VariantPlan& plan,
                           std::optional<uint64_t> workload_seed) {
  AnalysisReport report;
  CheckWellFormedness(plan, &report);
  CheckCoverage(plan, &report);

  // Liveness needs the concrete traces; skip when the plan is structurally
  // unable to build them, or would build unbounded ones (the plan/* errors
  // above already reject it).
  const bool one_target = plan.benchmark.has_value() != plan.server.has_value();
  if (!one_target || plan.specs.empty() || report.HasRule("plan/trace-shape")) {
    return report;
  }
  std::vector<size_t> members(plan.specs.size());
  std::iota(members.begin(), members.end(), size_t{0});
  auto traces = api::BuildPlanTraces(plan, members, workload_seed.value_or(plan.seed));
  if (!traces.ok()) {
    report.AddError("plan/injection-site", "",
                    "trace construction fails: " + traces.status().message(),
                    "inject divergences only into variants with sync-relevant syscalls");
    return report;
  }
  nxe::EngineConfig config = plan.engine_config;
  config.contention_variants = plan.n_variants();
  AnalyzeTraces(config, *traces, &report);
  return report;
}

}  // namespace analysis
}  // namespace bunshin
