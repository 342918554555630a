#include "src/analysis/plan_analyzer.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analysis/trace_analyzer.h"
#include "src/distribution/distribution.h"
#include "src/nxe/engine.h"
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
// The coverage proof keeps one owner slot per profiled function; the
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
    return;  // no target, or a reported shape error that can make the function set unbounded
  }
  // The ground truth is recomputed from the planning inputs, never read
  // from the plan: the profiled function names follow the synthesizer's
  // rule (workload::ProfiledFunctionName), so a plan name is matched by
  // parsing its index back out, with no profile synthesized and nothing
  // allocated per name however the names are crafted. Each index has one
  // owner slot, the subset that claimed it first.
  const workload::BenchmarkSpec& bench = *plan.benchmark;
  constexpr size_t kUnowned = static_cast<size_t>(-1);
  std::vector<size_t> owner(workload::ProfiledFunctionCount(bench), kUnowned);
  std::vector<std::string> unknown;  // the first kShownNames only
  size_t n_unknown = 0;
  for (size_t v = 0; v < cp.protected_functions.size(); ++v) {
    for (const std::string& name : cp.protected_functions[v]) {
      const std::optional<size_t> index = workload::ProfiledFunctionIndex(bench, name);
      if (!index.has_value()) {
        if (n_unknown++ < kShownNames) {
          unknown.push_back(name + " (" + SubsetLoc(v) + ")");
        }
        continue;
      }
      size_t& first = owner[*index];
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
  // Gaps are listed in name order (mcf::fn10 before mcf::fn2): only the
  // gaps' names are built, and only the first few sorted.
  std::vector<std::string> gaps;
  for (size_t i = 0; i < owner.size(); ++i) {
    if (owner[i] == kUnowned) {
      gaps.push_back(workload::ProfiledFunctionName(bench, i));
    }
  }
  if (gaps.empty()) {
    return;
  }
  const size_t shown = std::min(gaps.size(), kShownNames);
  std::partial_sort(gaps.begin(), gaps.begin() + static_cast<std::ptrdiff_t>(shown), gaps.end());
  report->AddError("coverage/gap", "",
                   "profiled function(s) protected by no variant: " + NameList(gaps) +
                       "; an attack on them is invisible to every variant",
                   "the subsets must cover the full profiled function set");
}

// --- coverage/* for sanitizer / UBSan-sub distribution -----------------------

// Reports, per group, the first name listed earlier in the same or an
// earlier group, naming the group that listed it first. Names are compared
// as views into the plan, sorted once: no copy, no allocation per name,
// and no hash keyed by untrusted strings.
void CheckGroupDuplicates(const std::vector<std::vector<std::string>>& groups,
                          AnalysisReport* report) {
  struct Listing {
    std::string_view name;
    size_t group;
    size_t order;  // position in the groups' concatenated lists
  };
  std::vector<Listing> listings;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const std::string& name : groups[g]) {
      listings.push_back({name, g, listings.size()});
    }
  }
  std::sort(listings.begin(), listings.end(), [](const Listing& a, const Listing& b) {
    const int by_name = a.name.compare(b.name);
    return by_name != 0 ? by_name < 0 : a.order < b.order;
  });
  // Per group, its first repeated listing and the group that owns the name.
  constexpr size_t kNoRepeat = static_cast<size_t>(-1);
  struct Repeat {
    size_t order = kNoRepeat;
    size_t owner = 0;
    std::string_view name;
  };
  std::vector<Repeat> first_repeat(groups.size());
  size_t first = 0;  // the current name's first listing
  for (size_t i = 1; i < listings.size(); ++i) {
    const Listing& listing = listings[i];
    if (listing.name != listings[first].name) {
      first = i;
      continue;
    }
    Repeat& repeat = first_repeat[listing.group];
    if (listing.order < repeat.order) {
      repeat = {listing.order, listings[first].group, listing.name};
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    const Repeat& repeat = first_repeat[g];
    if (repeat.order != kNoRepeat) {
      std::string message = "'";
      message.append(repeat.name).append("' already appears in ").append(GroupLoc(repeat.owner));
      report->AddError("coverage/group-duplicate", GroupLoc(g), std::move(message),
                       "each protection unit belongs to exactly one group");
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
  std::vector<san::SanitizerId> covered;  // distinct, at most the catalog's size
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
      if (std::find(covered.begin(), covered.end(), *id) == covered.end()) {
        covered.push_back(*id);
      }
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
    if (std::find(covered.begin(), covered.end(), id) == covered.end()) {
      missing.push_back(san::SanitizerName(id));
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
  const std::vector<san::SubSanitizer>& catalog = san::UBSanSubSanitizers();
  std::vector<bool> covered(catalog.size(), false);  // by catalog position
  for (size_t g = 0; g < plan.sanitizer_groups.size(); ++g) {
    for (const std::string& name : plan.sanitizer_groups[g]) {
      const auto sub = std::find_if(catalog.begin(), catalog.end(),
                                    [&](const san::SubSanitizer& s) { return s.name == name; });
      if (sub == catalog.end()) {
        report->AddError("coverage/unknown-sanitizer", GroupLoc(g),
                         "'" + name + "' is not a UBSan sub-sanitizer",
                         "groups name the 19 catalog sub-sanitizers");
        continue;
      }
      covered[static_cast<size_t>(sub - catalog.begin())] = true;
    }
  }
  std::vector<std::string> missing;
  for (size_t i = 0; i < catalog.size(); ++i) {
    if (!covered[i]) {
      missing.push_back(catalog[i].name);
    }
  }
  std::sort(missing.begin(), missing.end());  // listed in name order
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
