// VariantPlan: the cacheable product of session planning.
//
// Planning (profile synthesis, check/sanitizer partitioning, per-variant
// spec construction) is the expensive, input-independent half of building a
// trace session; execution is the cheap, per-run half. This header is the
// seam between them: NvxBuilder produces one VariantPlan, and any backend —
// the TraceBackend running a session's shard groups, the RemoteBackend
// shipping them to executors, each executor's backend for one group —
// consumes it without re-planning. Backends share one plan by shared_ptr, so
// distributing a session across K executors costs one profile run and one
// partition, not K.
//
// The plan is also the unit PlanCache stores: CacheKey() names the planning
// inputs, so two builders configured alike share a plan across many Run()
// calls. The key does not bind the derived fields (specs, labels, check
// plan): bytes from a peer can carry any of those under an honest key, which
// is why an executor compares a request's plan bytes with the plan it cached
// under that key (docs/wire_format.md).
#ifndef BUNSHIN_SRC_API_PLAN_H_
#define BUNSHIN_SRC_API_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/distribution/distribution.h"
#include "src/nxe/engine.h"
#include "src/partition/partition.h"
#include "src/sanitizer/sanitizer.h"
#include "src/support/status.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace api {

enum class DistributionStrategy {
  kNone,       // N identical clones (NXE-efficiency experiments)
  kCheck,      // one sanitizer's checks split across variants (§3.2)
  kSanitizer,  // whole sanitizers grouped conflict-free (§3.1/§5.6)
  kUbsanSub,   // UBSan's 19 sub-sanitizers distributed (§5.5)
};

const char* DistributionStrategyName(DistributionStrategy strategy);

// One spliced sanitizer detection (attack scenarios / tests): a firing
// check in `variant`'s trace, mid-run.
struct DetectInjection {
  size_t variant = 0;
  std::string detector;
};

// One spliced divergence (attack scenarios / tests): the compromised variant
// emits a different payload through a mid-run sync-relevant syscall, which
// the monitor flags as an observable-behavior divergence.
struct DivergeInjection {
  size_t variant = 0;
  std::string payload;
};

// The fully planned trace session: everything a backend needs to execute
// any subset of the variants. specs[0] is the leader — it doubles as the
// baseline designation, and every shard replicates it for synchronization.
struct VariantPlan {
  // Target (exactly one set).
  std::optional<workload::BenchmarkSpec> benchmark;
  std::optional<workload::ServerSpec> server;

  DistributionStrategy strategy = DistributionStrategy::kNone;
  uint64_t seed = 42;
  bool measure_standalone = false;

  // Planning inputs that shape the strategy output below. Planning is
  // deterministic, so these (plus the target and engine config) fully
  // determine the specs — which is what lets CacheKey() identify the plan
  // without re-running profile synthesis or partitioning, and lets
  // NvxBuilder::PlanCacheKey() compute the key before planning at all.
  size_t requested_variants = 0;  // n as asked for (kSanitizer may clamp specs)
  san::SanitizerId check_sanitizer = san::SanitizerId::kASan;  // kCheck
  std::vector<san::SanitizerId> sanitizers;                    // kSanitizer
  partition::PartitionOptions partition_options;               // kCheck

  // Engine configuration with cache_sensitivity already resolved. Backends
  // running a variant subset must still set contention_variants to
  // n_variants() so a shard models session-wide LLC/core pressure.
  nxe::EngineConfig engine_config;

  // Distribution strategy output.
  std::vector<workload::VariantSpec> specs;  // [0] is the leader/baseline
  std::vector<std::string> labels;           // one per spec
  std::optional<distribution::CheckDistributionPlan> check_plan;
  std::vector<std::vector<std::string>> sanitizer_groups;

  // Attack-scenario splices, in session-wide (global) variant indices.
  std::vector<DetectInjection> detect_injections;
  std::vector<DivergeInjection> diverge_injections;

  // Static-analysis report attached by analysis::AnalyzePlan at plan time
  // (NvxBuilder caches it with the plan; ExecutorServer re-analyzes decoded
  // wire plans itself). Not part of CacheKey() — it is derived from the plan,
  // never an input to it. May be null for hand-assembled plans.
  std::shared_ptr<const analysis::AnalysisReport> analysis;

  size_t n_variants() const { return specs.size(); }

  // Identifies everything that determines this plan's content: two builders
  // whose plans share a key plan identically, so the key is what PlanCache
  // stores plans under. The key is a pure function of the planning inputs
  // (target shape + sanitizer overhead table, strategy + its parameters,
  // n, seed, engine config) — never of the derived specs — so it can be
  // computed without planning (NvxBuilder::PlanCacheKey()). Injection
  // components come last: a base (injection-free) plan's key is the prefix
  // every attack overlay of it shares. Every free-form string is
  // length-prefixed and every double round-trip-exact, so neither crafted
  // names nor sub-1e-6 deltas can alias two distinct configurations.
  std::string CacheKey() const;
};

// Builds the concrete variant traces a backend (or the static analyzer)
// executes for the plan's member subset: one trace per member (specs[global]
// through the target's workload generator), with the plan's detection and
// divergence injections spliced into the members that own them. This is the
// single home of the splice rules — TraceBackend::Run and
// analysis::AnalyzePlan call it, so what the analyzer proves about the
// traces is exactly what the engine runs. Fails (FailedPrecondition) when a
// divergence injection targets a member with no sync-relevant syscall.
StatusOr<std::vector<nxe::VariantTrace>> BuildPlanTraces(const VariantPlan& plan,
                                                         const std::vector<size_t>& members,
                                                         uint64_t seed);

// Out-param form for warm callers: `out` is refilled in place, every trace
// reusing its buffers' capacity. On error `out` is left cleared. Identical
// traces to the value-returning overload.
Status BuildPlanTraces(const VariantPlan& plan, const std::vector<size_t>& members,
                       uint64_t seed, std::vector<nxe::VariantTrace>* out);

// The two halves of BuildPlanTraces, for callers that derive more than the
// member traces from one template (a backend's baseline trace is
// DeriveTrace(tmpl, VariantSpec{}) of the same template). BuildPlanTemplate
// makes the target's structural draws for `seed` once; DerivePlanTraces
// derives each member's trace from that template and splices the
// injections, with BuildPlanTraces' semantics.
void BuildPlanTemplate(const VariantPlan& plan, uint64_t seed, workload::TraceTemplate* out);
Status DerivePlanTraces(const VariantPlan& plan, const std::vector<size_t>& members,
                        const workload::TraceTemplate& tmpl, std::vector<nxe::VariantTrace>* out);

// The session's variant slots dealt into k shard groups — the single home of
// the grouping rule, shared by Shards(k) (groups run in-process, one after
// another) and RemoteBackend (groups run on executors) so both produce
// identical partials and bit-identical merged reports. groups[0] owns the baseline;
// followers are dealt round-robin; every group starts with the leader slot 0
// (each shard replicates the leader for synchronization); groups that would
// hold only the replica are dropped.
std::vector<std::vector<size_t>> ShardMemberGroups(size_t n_variants, size_t k);

// Key-building helpers of VariantPlan::CacheKey(), exposed for the analyzer's
// messages and for tests.
//
// to_string's fixed 6-decimal formatting aliased distinct doubles (any
// sub-1e-6 delta, e.g. noise_rel_sigma 1e-7 vs 2e-7 both printed
// "0.000000"); %.17g round-trips IEEE-754 doubles exactly.
std::string CacheKeyDouble(double value);
// Appends `component` length-prefixed ("<len>:<bytes>") so a free-form name
// containing the key's separators cannot alias across field boundaries.
void AppendCacheKeyComponent(std::string* key, const std::string& component);

}  // namespace api
}  // namespace bunshin

#endif  // BUNSHIN_SRC_API_PLAN_H_
