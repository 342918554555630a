// The unified Bunshin session API (the public surface of this repo).
//
// The seed grew two disconnected programming surfaces: the functional
// pipeline on the IR substrate (src/core, returning NvxResult) and the
// calibrated trace engine (src/nxe + src/workload, returning SyncReport).
// This layer puts one narrow facade over both:
//
//   auto session = api::NvxBuilder()
//                      .Benchmark(workload::Spec2006()[0])   // or .Module(m)
//                      .Variants(3)
//                      .Lockstep(nxe::LockstepMode::kSelective)
//                      .DistributeChecks(san::SanitizerId::kASan)
//                      .Build();
//   auto report = session->Run();        // -> StatusOr<RunReport>
//
// A session owns one Backend:
//   * IrBackend     — owns one core::IrNvxSystem: builds variants from an
//     ir::Module by check/sanitizer/UBSan-sub distribution and executes them
//     on the interpreter;
//   * TraceBackend  — wraps nxe::Engine + the workload generators: replays
//     calibrated VariantTraces of a benchmark or server spec under the NXE.
//
// Both return the same RunReport (outcome, detection/divergence detail,
// timing, telemetry, per-variant overhead), and the session invokes observer
// hooks (on_variant_finish, then on_incident) so monitors and benches stop
// re-parsing backend-specific reports.
#ifndef BUNSHIN_SRC_API_NVX_H_
#define BUNSHIN_SRC_API_NVX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/api/plan.h"
#include "src/api/plan_cache.h"
#include "src/core/bunshin.h"
#include "src/net/endpoint.h"
#include "src/distribution/distribution.h"
#include "src/ir/ir.h"
#include "src/nxe/engine.h"
#include "src/profile/profiler.h"
#include "src/sanitizer/sanitizer.h"
#include "src/support/status.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace support {
class ThreadPool;
}  // namespace support

namespace api {

class AsyncNvxSession;

// ---------------------------------------------------------------------------
// RunReport: the one result type every backend produces.
// ---------------------------------------------------------------------------

enum class NvxOutcome {
  kOk,        // all variants agreed; the result is trustworthy
  kDetected,  // a distributed sanity check fired in some variant
  kDiverged,  // observable-behavior divergence (or a variant crashed)
};

const char* NvxOutcomeName(NvxOutcome outcome);

struct Detection {
  size_t variant = 0;
  size_t thread = 0;
  std::string detector;  // report handler, e.g. "__asan_report_store"
};

struct Divergence {
  size_t variant = 0;
  size_t thread = 0;
  size_t sync_index = 0;  // position in the filtered sync stream (trace backend)
  std::string expected;   // leader record (trace backend)
  std::string actual;     // follower record (trace backend)
  std::string detail;     // human-readable summary (both backends)
};

struct PartialReport;

struct RunReport {
  std::string backend;  // "ir" or "trace"

  // Outcome.
  NvxOutcome outcome = NvxOutcome::kOk;
  std::optional<Detection> detection;    // set when kDetected
  std::optional<Divergence> divergence;  // set when kDiverged
  bool aborted_all = false;              // monitor killed every variant
  // Leader's program result when kOk (IR backend only).
  std::optional<int64_t> return_value;

  // Timing. IR backend measures in weighted interpreter cycles; trace
  // backend in the engine's abstract cycles.
  double total_time = 0.0;
  std::optional<double> baseline_time;  // uninstrumented single run
  std::vector<double> variant_finish_time;
  // Each variant run standalone (no synchronization) — what "the slowest
  // individual sanitizer" comparisons are computed from. Trace backend only,
  // filled only when the builder asked for MeasureStandalone().
  std::vector<double> variant_standalone_time;
  // The sanitizer slowdown each variant carried into the run (1.0 == none).
  std::vector<double> variant_compute_scale;

  // End-to-end overhead vs the uninstrumented baseline. Errors when the
  // backend produced no (positive) baseline — never a silent 0.0.
  StatusOr<double> Overhead() const;

  // Telemetry. Trace-backend fields are copied verbatim from the engine's
  // SyncReport, whose values are scheduler-implementation independent: the
  // event-driven nxe::Engine::Run is property-tested bit-identical to the
  // retained reference scheduler (Engine::RunReference), so none of these
  // fields depend on which scheduler path executed the session.
  uint64_t synced_syscalls = 0;
  uint64_t ignored_syscalls = 0;  // sanitizer-introduced, filtered
  uint64_t lockstep_barriers = 0;
  uint64_t lock_acquisitions = 0;
  // §5.3 attack-window metric (selective lockstep, trace backend).
  double avg_syscall_gap = 0.0;
  uint64_t max_syscall_gap = 0;

  // Merges the partial reports of shard executions back into one session
  // report over `n_variants` global variant slots. Semantics:
  //   * outcome lattice: Detection > Divergence > Clean. Among incidents of
  //     the winning class, the earliest virtual abort time (the partial's
  //     total_time) wins; attribution is remapped to global variant indices
  //     and stays leader-relative (every shard replicates the leader).
  //   * timing: total_time is the slowest shard's virtual time (the shards'
  //     variants run concurrently); per-variant slots come from the shard
  //     that *owns* each variant (the leader slot belongs to the
  //     owns_baseline shard, which also contributes baseline_time — so
  //     Overhead() keeps working).
  //   * telemetry: syscall/barrier/lock counters sum across shards (each
  //     shard really performs that monitor work — the redundancy cost of
  //     replicating the leader is visible, not hidden); avg_syscall_gap is
  //     weighted by each shard's synced_syscalls, max_syscall_gap is a max.
  // Errors: no partials, an index out of range, a slot owned twice, or a
  // coverage/vector length mismatch. A partial covering no variants (an
  // empty shard) contributes nothing and is legal.
  static StatusOr<RunReport> Merge(size_t n_variants,
                                   const std::vector<PartialReport>& partials);
};

// One shard's execution result: the shard-local RunReport plus the mapping
// from its local variant slots to the session's global slots. Local slot 0
// is the shard's leader replica; a shard that does not own the baseline
// still runs it (synchronization needs a leader) but does not own its
// merged timing slot or the baseline time. The trace backend builds one per
// Shards(k) group; an executor builds one from the members and owns_baseline
// of the request it ran.
struct PartialReport {
  // variant_index[local_slot] = global session slot. Empty = an empty shard.
  std::vector<size_t> variant_index;
  bool owns_baseline = false;
  RunReport report;
};

// ---------------------------------------------------------------------------
// Observer hooks. The session guarantees the order: on_variant_finish for
// each variant in index order, then on_incident at most once. When runs of
// one session complete concurrently (async pool workers, caller threads), the
// session serializes notification so one run's callback sequence is never
// interleaved with another's. That serialization means callbacks run under
// the session's delivery lock: they must not call back into the same
// session (Run(), SetObserver()) — record and return.
// ---------------------------------------------------------------------------

struct Observer {
  std::function<void(size_t variant, double finish_time)> on_variant_finish;
  std::function<void(const RunReport& report)> on_incident;
  // Build-time hook, outside the run sequencing above: fired once per
  // Build()/BuildAsync()/PlanVariants() that consulted a plan cache, with the
  // cache key and whether it hit. Called on the building thread, before the
  // session exists — not under the delivery lock. The cache's running
  // counters are PlanCache::stats() of the cache passed to WithPlanCache().
  std::function<void(const std::string& key, bool hit)> on_plan_cache;
};

// ---------------------------------------------------------------------------
// Backend: the pluggable execution substrate behind a session.
// ---------------------------------------------------------------------------

// One execution request. The IR backend interprets `entry`/`args`; the trace
// backend replays its builder-configured workload (optionally re-seeded).
struct RunRequest {
  std::string entry = "main";
  std::vector<int64_t> args;
  std::optional<uint64_t> workload_seed;  // trace backend: override builder seed
};

// Convenience for the common IR-backend invocation shape.
inline RunRequest Call(std::string entry, std::vector<int64_t> args) {
  RunRequest request;
  request.entry = std::move(entry);
  request.args = std::move(args);
  return request;
}

class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;
  virtual size_t n_variants() const = 0;
  // Human-readable description of what each variant carries.
  virtual const std::vector<std::string>& variant_labels() const = 0;

  // Produces the report only; observer notification is the session's job
  // (centralized in NvxSession so it stays correctly sequenced when many
  // runs complete concurrently). Must be safe to call from several threads
  // at once — backends keep all per-run state on the stack.
  virtual StatusOr<RunReport> Run(const RunRequest& request) const = 0;

  // Introspection; null when the backend has no such plan.
  virtual const distribution::CheckDistributionPlan* check_plan() const { return nullptr; }
  virtual const std::vector<std::vector<std::string>>* sanitizer_groups() const {
    return nullptr;
  }
};

// A trace backend executing `members` (global slots, [0] must be the leader
// slot 0) of a shared plan as one group — the unit a remote executor
// rebuilds from a received plan. Validates plan presence, member shape
// (non-empty, leader first, in range, no duplicates). Runs take
// the warm path (docs/warm_path.md): the backend caches built traces and
// baseline times per seed and keeps engine arenas across runs, so repeat
// runs of one plan+seed are allocation-free in the steady state.
StatusOr<std::unique_ptr<Backend>> MakeTraceBackend(std::shared_ptr<const VariantPlan> plan,
                                                    std::vector<size_t> members,
                                                    bool owns_baseline);

// Grow-only RunReport recycling (the report half of the warm path): Acquire
// hands back a report shell whose vectors keep the capacity of a previously
// recycled report (all values reset to defaults), so a warm session fills a
// report without allocating. Recycle resets `report` and parks it on a
// small process-wide freelist; reports beyond the freelist's capacity are
// simply destroyed. Both are thread-safe and never required: an ordinary
// default-constructed RunReport behaves identically, just colder.
RunReport AcquireReport();
void RecycleReport(RunReport&& report);

// ---------------------------------------------------------------------------
// NvxSession: a built N-version system, ready to run.
// ---------------------------------------------------------------------------

class NvxSession {
 public:
  explicit NvxSession(std::unique_ptr<Backend> backend)
      : backend_(std::move(backend)), observer_mu_(std::make_unique<std::mutex>()) {}

  NvxSession(NvxSession&&) = default;
  NvxSession& operator=(NvxSession&&) = default;

  // Re-entrant: concurrent Run() calls are safe; observer callbacks for one
  // run are delivered as one uninterleaved sequence (finishes in variant
  // order, then at most one incident).
  StatusOr<RunReport> Run(const RunRequest& request = {}) const;

  void SetObserver(Observer observer) {
    std::lock_guard<std::mutex> lock(*observer_mu_);
    observer_ = std::move(observer);
  }

  const char* backend_name() const { return backend_->name(); }
  size_t n_variants() const { return backend_->n_variants(); }
  const std::vector<std::string>& variant_labels() const { return backend_->variant_labels(); }
  const distribution::CheckDistributionPlan* check_plan() const {
    return backend_->check_plan();
  }
  const std::vector<std::vector<std::string>>* sanitizer_groups() const {
    return backend_->sanitizer_groups();
  }

 private:
  void Notify(const RunReport& report) const;

  std::unique_ptr<Backend> backend_;
  Observer observer_;
  // Serializes observer delivery across concurrently completing runs (held
  // by pointer so the session stays movable).
  std::unique_ptr<std::mutex> observer_mu_;
};

// ---------------------------------------------------------------------------
// NvxBuilder: fluent configuration producing an NvxSession.
// ---------------------------------------------------------------------------

class NvxBuilder {
 public:
  // --- Target selection (exactly one required) -----------------------------
  // Functional pipeline: build variants of `module` and run the interpreter.
  NvxBuilder& Module(const ir::Module& module);
  // Calibrated trace engine: replay variants of a benchmark or server spec.
  NvxBuilder& Benchmark(const workload::BenchmarkSpec& spec);
  NvxBuilder& Server(const workload::ServerSpec& spec);

  // --- Variant construction ------------------------------------------------
  NvxBuilder& Variants(size_t n);
  NvxBuilder& DistributeChecks(san::SanitizerId sanitizer);
  NvxBuilder& DistributeSanitizers(std::vector<san::SanitizerId> sanitizers);
  NvxBuilder& DistributeUbsanSubSanitizers();
  // Profiling inputs for check distribution on a module (the paper's `train`
  // run). Required with Module + DistributeChecks.
  NvxBuilder& ProfilingWorkload(std::vector<profile::WorkloadRun> workload);
  // Splice a firing sanitizer check into one variant's trace (attack
  // scenarios / tests). Trace targets only.
  NvxBuilder& InjectDetection(size_t variant, std::string detector);
  // Splice a divergent payload into one of `variant`'s mid-run sync-relevant
  // syscalls (a compromised variant trying to exfiltrate different output).
  // Trace targets only. Attribution in the report is leader-relative — the
  // monitor only sees that records disagree, so tampering with variant 0
  // (the leader) surfaces as a divergence blamed on a follower, with
  // expected/actual from the leader's point of view.
  NvxBuilder& InjectDivergence(size_t variant, std::string payload);

  // --- Engine / execution knobs --------------------------------------------
  NvxBuilder& Lockstep(nxe::LockstepMode mode);
  NvxBuilder& Cores(int cores);
  NvxBuilder& BackgroundLoad(double load);
  NvxBuilder& RingCapacity(size_t slots);
  NvxBuilder& Seed(uint64_t seed);
  // Also run each variant standalone (no synchronization) per Run() so the
  // report's variant_standalone_time is filled — N extra simulations; off by
  // default.
  NvxBuilder& MeasureStandalone(bool measure = true);
  NvxBuilder& SetObserver(Observer observer);
  // Session batching (trace targets): Build()/PlanVariants() consult `cache`
  // under PlanCacheKey() instead of re-planning. Only the base
  // (injection-free) plan is cached; InjectDetection/InjectDivergence are
  // applied as a cheap copy-on-write overlay of the shared entry, so attack
  // scenarios do not fragment the cache. Sessions built from a cached plan
  // are bit-identical to uncached ones (planning is deterministic).
  NvxBuilder& WithPlanCache(std::shared_ptr<PlanCache> cache);
  // Split the session's variants into k engine shard groups (trace targets
  // only). Group 0 carries the baseline/leader slot; followers are dealt
  // round-robin; every group replicates the leader for synchronization.
  // A run with a new seed derives each trace once; every run executes the
  // groups' engines one after another on the calling thread and merges their
  // PartialReports (RunReport::Merge). Shards(k) is the in-process oracle
  // for Remote().
  NvxBuilder& Shards(size_t k);
  // Fan the session's shard groups out across executor daemons instead of
  // running them in-process (trace targets only; composes with Shards(k) to
  // set the group count, default k = number of endpoints). Each Run() ships
  // the plan (by wire CacheKey, so executors cache decoded plans) plus each
  // group's member list to an executor chosen by CacheKey affinity, with
  // per-request timeout and bounded retry to a different executor. Merged
  // reports are bit-identical to Shards(k) and to the unsharded session.
  NvxBuilder& Remote(std::vector<net::Endpoint> endpoints, net::RemoteOptions options = {});
  // Warm-run engine arenas (trace targets; on by default): the session's
  // trace backends keep the engine's scheduler arenas in their per-run
  // scratch, making repeat runs of one plan allocation-free in the steady
  // state. Reports are bit-identical either way. PooledEngines(false) runs
  // every engine call without a workspace (the cold path).
  NvxBuilder& PooledEngines(bool pooled = true);

  // Validates the configuration and constructs the session (and its
  // variants); all configuration errors surface here, not at Run() time.
  StatusOr<NvxSession> Build() const;

  // The planning half of Build() for trace targets: per-variant specs,
  // distribution output, injections, resolved engine config. Backends (and
  // all shards of one session) consume one plan without re-profiling or
  // re-partitioning, and plan.CacheKey() is the session-batching cache key.
  // With WithPlanCache() set this consults the cache too.
  StatusOr<VariantPlan> PlanVariants() const;

  // The key Build()/PlanVariants() consult the plan cache under: the base
  // (injection-free) plan's CacheKey(), computed from the builder's
  // configuration without planning. Trace targets only.
  StatusOr<std::string> PlanCacheKey() const;

  // Async variant of Build(): a session whose Submit() runs on `pool` (not
  // null) and delivers each result to a CompletionQueue (src/api/async.h).
  // Many sessions may share one pool, and so one set of workers.
  StatusOr<AsyncNvxSession> BuildAsync(std::shared_ptr<support::ThreadPool> pool) const;

 private:
  StatusOr<std::unique_ptr<Backend>> BuildIrBackend() const;
  // Validation + backend construction behind Build() and BuildAsync().
  StatusOr<std::unique_ptr<Backend>> BuildBackend() const;
  // The planning inputs as a VariantPlan with no strategy output: what
  // PlanCacheKey() hashes and PlanBase() starts from.
  VariantPlan SkeletonPlan() const;
  // Plans the base (injection-free) variant set.
  StatusOr<VariantPlan> PlanBase() const;
  // Validates the builder's injections against `plan`, stamps them on and
  // re-analyzes it: the one home of that step, cached or not.
  Status StampInjections(VariantPlan* plan) const;
  // PlanBase() + StampInjections(): the uncached planning path.
  StatusOr<VariantPlan> PlanUncached() const;
  // The shared plan a trace backend consumes: through the cache (base plan +
  // injection overlay) when WithPlanCache() is set, fresh otherwise.
  StatusOr<std::shared_ptr<const VariantPlan>> ResolveSharedPlan() const;
  // Common validation for Build()/PlanVariants().
  Status ValidateTarget() const;

  const ir::Module* module_ = nullptr;
  std::optional<workload::BenchmarkSpec> benchmark_;
  std::optional<workload::ServerSpec> server_;

  size_t n_variants_ = 2;
  DistributionStrategy strategy_ = DistributionStrategy::kNone;
  san::SanitizerId check_sanitizer_ = san::SanitizerId::kASan;
  std::vector<san::SanitizerId> sanitizers_;
  std::vector<profile::WorkloadRun> profiling_workload_;
  std::vector<DetectInjection> detect_injections_;
  std::vector<DivergeInjection> diverge_injections_;

  nxe::EngineConfig engine_config_;
  bool measure_standalone_ = false;
  uint64_t seed_ = 42;
  std::optional<size_t> shards_;  // set by Shards()
  std::vector<net::Endpoint> remote_endpoints_;  // set by Remote()
  net::RemoteOptions remote_options_;
  bool remote_ = false;
  Observer observer_;
  std::shared_ptr<PlanCache> plan_cache_;
  bool pooled_engines_ = true;
};

}  // namespace api
}  // namespace bunshin

#endif  // BUNSHIN_SRC_API_NVX_H_
