// Static analysis over api::VariantPlan — the trust-boundary gate.
//
// AnalyzePlan runs the full rule catalog against one plan:
//
//   * plan/*      — well-formedness: exactly one target, variants present,
//                   labels aligned, injections in range, compute scales sane,
//                   strategy/target consistency, contention width, and a
//                   bounded trace shape (variants, threads, actions).
//   * coverage/*  — the §3.2 security claim: under kCheck the distribution
//                   subsets partition the *recomputed* profiled function set
//                   exactly (no gap, no overlap, no unknown name). The set is
//                   recomputed from the planning inputs by the synthesizer's
//                   own name rule (workload::ProfiledFunctionIndex), one
//                   owner slot per function, with no profile synthesized and
//                   nothing memoized. Under kSanitizer/kUbsanSub the groups
//                   are duplicate-free, conflict-free, and cover every
//                   requested unit; every spec's sanitizer set is
//                   collectively enforceable.
//   * liveness/*  — the plan's concrete traces (built by api::BuildPlanTraces,
//                   the exact trace construction backends execute, injections
//                   included) pass the trace analyzer's deadlock-freedom
//                   proof, one walk per (variant, thread).
//   * analysis/*  — predicted run outcomes for the oracle suite.
//
// Callers at the three trust boundaries:
//   * NvxBuilder analyzes at plan time and caches the report with the plan
//     (VariantPlan::analysis); errors fail Build().
//   * net::ExecutorServer analyzes every decoded wire plan before it reaches
//     the plan cache; errors reject the request with the rendered report.
//   * tools/nvx_analyze lints plan files / corpora offline.
#ifndef BUNSHIN_SRC_ANALYSIS_PLAN_ANALYZER_H_
#define BUNSHIN_SRC_ANALYSIS_PLAN_ANALYZER_H_

#include <cstdint>
#include <optional>

#include "src/analysis/diagnostics.h"
#include "src/api/plan.h"

namespace bunshin {
namespace analysis {

// Analyzes `plan` end to end. `workload_seed` overrides the plan's seed for
// trace construction (mirror of api::RunRequest::workload_seed, so a trust
// boundary can analyze the traces a specific request will actually run);
// nullopt analyzes at the plan's own seed.
//
// Structural plan errors (no/dual target, no variants, label misalignment)
// make trace construction impossible, and a plan/trace-shape error makes it
// unbounded; the liveness rules are then skipped and
// the report carries the plan/* errors — use well_formed() && deadlock_free(),
// not deadlock_free() alone, as the "engine will not error" verdict.
AnalysisReport AnalyzePlan(const api::VariantPlan& plan,
                           std::optional<uint64_t> workload_seed = std::nullopt);

}  // namespace analysis
}  // namespace bunshin

#endif  // BUNSHIN_SRC_ANALYSIS_PLAN_ANALYZER_H_
