#include "src/api/nvx.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/analysis/ir_analyzer.h"
#include "src/analysis/plan_analyzer.h"
#include "src/api/async.h"
#include "src/ir/verifier.h"
#include "src/net/remote.h"
#include "src/support/enum_name.h"
#include "src/workload/funcprofile.h"

namespace bunshin {
namespace api {
namespace {

// Whole-program slowdown `sanitizer` imposes on `bench` (the calibrated
// per-benchmark value when the spec carries one, the catalog mean otherwise).
StatusOr<double> SpecOverhead(const workload::BenchmarkSpec& bench, san::SanitizerId sanitizer) {
  switch (sanitizer) {
    case san::SanitizerId::kASan:
      return bench.overheads.asan;
    case san::SanitizerId::kMSan:
      if (!bench.overheads.msan_supported) {
        return FailedPrecondition("msan is not supported on benchmark " + bench.name);
      }
      return bench.overheads.msan;
    case san::SanitizerId::kUBSan:
      return bench.overheads.ubsan;
    default:
      return san::GetSanitizer(sanitizer).mean_overhead;
  }
}

// ---------------------------------------------------------------------------
// IrBackend: variants of an ir::Module executed on the interpreter.
// ---------------------------------------------------------------------------

// RunDetailed is const and keeps per-run state on the interpreter stack, so
// concurrent runs of one session share the system safely.
class IrBackend final : public Backend {
 public:
  IrBackend(core::IrNvxSystem system, std::unique_ptr<ir::Module> baseline, uint64_t fuel,
            bool has_check_plan, std::vector<std::string> labels)
      : system_(std::move(system)),
        baseline_(std::move(baseline)),
        fuel_(fuel),
        has_check_plan_(has_check_plan),
        labels_(std::move(labels)) {}

  const char* name() const override { return "ir"; }
  size_t n_variants() const override { return system_.n_variants(); }
  const std::vector<std::string>& variant_labels() const override { return labels_; }

  const distribution::CheckDistributionPlan* check_plan() const override {
    return has_check_plan_ ? &system_.check_plan() : nullptr;
  }

  StatusOr<RunReport> Run(const RunRequest& request) const override {
    RunReport report;
    report.backend = name();

    // The reference run: the uninstrumented module on the same input.
    {
      ir::Interpreter interp(baseline_.get());
      interp.set_fuel(fuel_);
      const ir::ExecResult base = interp.Run(request.entry, request.args);
      if (base.outcome == ir::Outcome::kReturned) {
        report.baseline_time = static_cast<double>(base.cost);
      }
    }

    const core::DetailedNvxRun detailed = system_.RunDetailed(request.entry, request.args);

    report.variant_finish_time.reserve(detailed.runs.size());
    for (const auto& run : detailed.runs) {
      const double finish = static_cast<double>(run.cost);
      report.variant_finish_time.push_back(finish);
      report.total_time = std::max(report.total_time, finish);
    }

    // Telemetry from the leader's event stream: observable events are the
    // syscall analogues the system synchronized on; the rest were filtered
    // as sanitizer-internal.
    if (!detailed.runs.empty()) {
      const auto& leader = detailed.runs.front();
      const size_t observable = core::FilterObservable(leader.events).size();
      report.synced_syscalls = observable;
      report.ignored_syscalls = leader.events.size() - observable;
    }

    const core::NvxResult& result = detailed.result;
    switch (result.outcome) {
      case core::NvxOutcome::kOk:
        report.outcome = NvxOutcome::kOk;
        report.return_value = result.return_value;
        break;
      case core::NvxOutcome::kDetected:
        report.outcome = NvxOutcome::kDetected;
        report.detection = Detection{result.detecting_variant, 0, result.detector};
        report.aborted_all = true;
        break;
      case core::NvxOutcome::kDiverged:
        report.outcome = NvxOutcome::kDiverged;
        report.divergence = Divergence{result.diverging_variant, 0, 0, "", "",
                                       result.divergence_detail};
        report.aborted_all = true;
        break;
    }

    return report;
  }

 private:
  core::IrNvxSystem system_;
  std::unique_ptr<ir::Module> baseline_;
  uint64_t fuel_;
  bool has_check_plan_;
  std::vector<std::string> labels_;
};

// ---------------------------------------------------------------------------
// TraceBackend: calibrated VariantTraces replayed under the NXE.
//
// Covers any subset of a shared VariantPlan's variants: `coverage` lists the
// global slots its reports cover, and slot 0 is always the leader. A
// whole-session backend covers every slot; an executor's backend covers one
// remote shard group. The covered variants run as one or more groups, each
// starting with the leader (a group replicates it for synchronization). One
// group is the ordinary session. Under Shards(k) the groups are
// ShardMemberGroups(n, k): they run one after another on the calling thread
// and their reports merge through RunReport::Merge, which does the global
// remapping; an executor wraps its subset backend's report in a
// PartialReport the same way.
// ---------------------------------------------------------------------------

// A bounded LIFO of idle items behind one mutex. Take() hands back the item
// parked last, or a default-constructed one when none is idle; Put() parks
// `item` unless `Capacity` items are idle already, and otherwise leaves it
// with the caller, to be destroyed.
template <typename T, size_t Capacity>
class Freelist {
 public:
  T Take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      return T{};
    }
    T item = std::move(free_.back());
    free_.pop_back();
    return item;
  }

  void Put(T&& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < Capacity) {
      free_.push_back(std::move(item));
    }
  }

 private:
  std::mutex mu_;
  std::vector<T> free_;
};

// Drops `trace`'s borrows of its template's record tables, so a rebuild of
// that template refills them in place. The trace names records it no longer
// holds until it is derived again.
void ReleaseTemplate(nxe::VariantTrace& trace) {
  for (nxe::ThreadTrace& thread : trace.threads) {
    thread.borrowed.reset();
  }
}

// A session's replay state: what a later run of the same (plan, coverage,
// seed) reads. Built traces and derived baseline and standalone times are
// pure functions of those, so a run with the scratch's seed skips trace
// construction and the baseline simulations entirely. A run with a new seed
// builds one template into `tmpl` and derives each covered trace from it
// once, whatever the group count, into buffers that keep their capacity from
// seed to seed. The traces own their actions and the records they add, and
// borrow the template's record tables. Run() is const and concurrent, so
// scratches live on a per-backend checkout freelist (one per in-flight run),
// never as bare mutable members.
struct SessionScratch {
  bool valid = false;
  uint64_t seed = 0;
  workload::TraceTemplate tmpl;
  std::vector<nxe::VariantTrace> traces;  // one per covered slot
  std::optional<double> baseline_time;    // owns_baseline backends only
  std::vector<double> standalone;         // measure_standalone plans only; per covered slot
  bool standalone_valid = false;
};

// A run's working memory: what one run fills and reads and no later run
// does. It comes from one process-wide freelist (RunMemories), whichever
// session runs, so idle sessions hold none of it; its buffers keep the
// capacity of the largest runs they served.
struct RunMemory {
  nxe::EngineWorkspace workspace;      // warm backends only
  nxe::VariantTrace baseline_trace;    // derived on a new seed by owns_baseline backends
  std::vector<nxe::VariantTrace> view;  // one group's traces, swapped in from the scratch's
};

// At most this many idle RunMemory blocks are kept: one per concurrent run
// up to it; a burst of more runs builds fresh ones and drops the excess.
constexpr size_t kMaxIdleRunMemory = 16;

Freelist<std::unique_ptr<RunMemory>, kMaxIdleRunMemory>& RunMemories() {
  // Leaked intentionally: runs may finish during static teardown.
  static auto* freelist = new Freelist<std::unique_ptr<RunMemory>, kMaxIdleRunMemory>();
  return *freelist;
}

class TraceBackend final : public Backend {
 public:
  // `groups` hold positions in `coverage`; groups[0] owns the baseline when
  // `owns_baseline` is set.
  TraceBackend(std::shared_ptr<const VariantPlan> plan, std::vector<size_t> coverage,
               std::vector<std::vector<size_t>> groups, bool owns_baseline, bool warm_engines)
      : plan_(std::move(plan)),
        coverage_(std::move(coverage)),
        groups_(std::move(groups)),
        owns_baseline_(owns_baseline),
        warm_engines_(warm_engines) {
    labels_.reserve(coverage_.size());
    for (size_t global : coverage_) {
      labels_.push_back(plan_->labels[global]);
    }
  }

  const char* name() const override { return "trace"; }
  size_t n_variants() const override { return coverage_.size(); }
  const std::vector<std::string>& variant_labels() const override { return labels_; }

  const distribution::CheckDistributionPlan* check_plan() const override {
    return plan_->check_plan.has_value() ? &*plan_->check_plan : nullptr;
  }

  StatusOr<RunReport> Run(const RunRequest& request) const override {
    const VariantPlan& plan = *plan_;
    const uint64_t seed = request.workload_seed.value_or(plan.seed);

    // Check out the session's replay state and the run's working memory;
    // both go back on every exit.
    Checkout checkout(*this);
    SessionScratch& scratch = *checkout.scratch;
    RunMemory& memory = *checkout.memory;

    if (!scratch.valid || scratch.seed != seed) {
      // Trace construction + injection splicing live in BuildPlanTemplate /
      // DerivePlanTraces (the halves of BuildPlanTraces) so the static
      // analyzer proves properties of exactly the traces run here. The
      // scratch caches the result per seed: a warm run (same plan, same
      // seed) skips this entirely.
      scratch.valid = false;
      scratch.baseline_time.reset();
      scratch.standalone_valid = false;
      for (nxe::VariantTrace& trace : scratch.traces) {
        ReleaseTemplate(trace);
      }
      BuildPlanTemplate(plan, seed, &scratch.tmpl);
      Status built = DerivePlanTraces(plan, coverage_, scratch.tmpl, &scratch.traces);
      if (!built.ok()) {
        return built;
      }
      scratch.seed = seed;
      scratch.valid = true;
    }

    // A subset backend runs a trace subset, but the whole session still
    // shares the host: contention (LLC, core time-sharing) is modeled
    // session-wide.
    nxe::EngineConfig config = plan.engine_config;
    config.contention_variants = plan.n_variants();
    const nxe::Engine engine(config);
    // Warm path: the run memory's engine arenas, reset in place run to run.
    // A cold backend runs without a workspace.
    nxe::EngineWorkspace* workspace = warm_engines_ ? &memory.workspace : nullptr;

    if (owns_baseline_ && !scratch.baseline_time.has_value()) {
      workload::DeriveTrace(scratch.tmpl, workload::VariantSpec{}, &memory.baseline_trace);
      auto baseline = engine.RunBaseline(memory.baseline_trace, workspace);
      if (!baseline.ok()) {
        return baseline.status();
      }
      scratch.baseline_time = *baseline;
    }
    if (plan.measure_standalone && !scratch.standalone_valid) {
      scratch.standalone.clear();
      for (size_t slot = 0; slot < scratch.traces.size(); ++slot) {
        if (slot == 0 && !owns_baseline_) {
          // The leader's standalone time is owned (and measured) by the
          // backend that owns the baseline; Merge ignores this slot, so
          // don't simulate the most expensive trace again.
          scratch.standalone.push_back(0.0);
          continue;
        }
        auto standalone = engine.RunBaseline(scratch.traces[slot], workspace);
        if (!standalone.ok()) {
          return standalone.status();
        }
        scratch.standalone.push_back(*standalone);
      }
      scratch.standalone_valid = true;
    }

    if (groups_.size() == 1) {
      return RunGroup(engine, workspace, scratch.traces, groups_[0], owns_baseline_, scratch);
    }
    // Each group's traces are swapped into the view for its engine run and
    // back afterwards, so no trace is copied; the leader passes through
    // every group's view in turn. The cache is marked invalid while traces
    // are out, so a throw cannot leave a gutted scratch behind.
    std::vector<PartialReport> partials(groups_.size());
    for (size_t g = 0; g < groups_.size(); ++g) {
      const std::vector<size_t>& group = groups_[g];
      const bool group_owns_baseline = g == 0 && owns_baseline_;
      scratch.valid = false;
      memory.view.resize(group.size());
      for (size_t local = 0; local < group.size(); ++local) {
        std::swap(memory.view[local], scratch.traces[group[local]]);
      }
      StatusOr<RunReport> report =
          RunGroup(engine, workspace, memory.view, group, group_owns_baseline, scratch);
      for (size_t local = 0; local < group.size(); ++local) {
        std::swap(memory.view[local], scratch.traces[group[local]]);
      }
      scratch.valid = true;
      if (!report.ok()) {
        return report.status();
      }
      for (size_t slot : group) {
        partials[g].variant_index.push_back(coverage_[slot]);
      }
      partials[g].owns_baseline = group_owns_baseline;
      partials[g].report = std::move(*report);
    }
    StatusOr<RunReport> merged = RunReport::Merge(coverage_.size(), partials);
    // Merge copied what it needed; hand the group reports' arenas back to
    // the freelist.
    for (PartialReport& partial : partials) {
      RecycleReport(std::move(partial.report));
    }
    return merged;
  }

 private:
  // One engine run over `traces`, a group's traces in local order; `group`
  // holds their positions in coverage_.
  StatusOr<RunReport> RunGroup(const nxe::Engine& engine, nxe::EngineWorkspace* workspace,
                               const std::vector<nxe::VariantTrace>& traces,
                               const std::vector<size_t>& group, bool owns_baseline,
                               const SessionScratch& scratch) const {
    const VariantPlan& plan = *plan_;
    RunReport report = AcquireReport();
    report.backend = name();
    if (owns_baseline) {
      report.baseline_time = scratch.baseline_time;
    }
    report.variant_compute_scale.reserve(group.size());
    for (size_t slot : group) {
      report.variant_compute_scale.push_back(plan.specs[coverage_[slot]].compute_scale);
      if (plan.measure_standalone) {
        report.variant_standalone_time.push_back(scratch.standalone[slot]);
      }
    }

    auto sync = engine.Run(traces, workspace);
    if (!sync.ok()) {
      return sync.status();
    }

    report.total_time = sync->total_time;
    report.variant_finish_time = sync->variant_finish_time;
    if (workspace != nullptr) {
      // Hand the finish buffer's capacity back so the next run's SyncReport
      // reuses it (the values were copied into the report above).
      workspace->RecycleFinishBuffer(std::move(sync->variant_finish_time));
    }
    report.aborted_all = sync->aborted_all;
    report.synced_syscalls = sync->synced_syscalls;
    report.ignored_syscalls = sync->ignored_syscalls;
    report.lockstep_barriers = sync->lockstep_barriers;
    report.lock_acquisitions = sync->lock_acquisitions;
    report.avg_syscall_gap = sync->avg_syscall_gap;
    report.max_syscall_gap = sync->max_syscall_gap;

    if (sync->detection.has_value()) {
      report.outcome = NvxOutcome::kDetected;
      report.detection =
          Detection{sync->detection->variant, sync->detection->thread, sync->detection->detector};
    } else if (sync->divergence.has_value()) {
      const nxe::Divergence& d = *sync->divergence;
      report.outcome = NvxOutcome::kDiverged;
      report.divergence =
          Divergence{d.variant, d.thread, d.sync_index, d.expected, d.actual,
                     "variant " + std::to_string(d.variant) + " expected '" + d.expected +
                         "' got '" + d.actual + "'"};
    } else if (sync->completed) {
      report.outcome = NvxOutcome::kOk;
    } else {
      return Internal("engine run neither completed nor reported an incident");
    }

    return report;
  }

  // A run's checkout: the backend's replay state and the process's working
  // memory, idle ones when there are, else new ones. On every exit the
  // working memory goes back first, with its borrows of the scratch's
  // record tables dropped, so the template's next rebuild (ordered after
  // this by the scratch freelist's mutex) refills them in place.
  struct Checkout {
    explicit Checkout(const TraceBackend& b)
        : backend(b), scratch(b.scratches_.Take()), memory(RunMemories().Take()) {
      if (scratch == nullptr) {
        scratch = std::make_unique<SessionScratch>();
      }
      if (memory == nullptr) {
        memory = std::make_unique<RunMemory>();
      }
    }
    ~Checkout() {
      ReleaseTemplate(memory->baseline_trace);
      memory->view.clear();  // empty traces, or the scratch's after a throw (it rebuilds)
      RunMemories().Put(std::move(memory));
      backend.scratches_.Put(std::move(scratch));
    }
    Checkout(const Checkout&) = delete;
    Checkout& operator=(const Checkout&) = delete;

    const TraceBackend& backend;
    std::unique_ptr<SessionScratch> scratch;
    std::unique_ptr<RunMemory> memory;
  };

  // One scratch per in-flight run; beyond this, extra concurrent runs just
  // rebuild (bounded memory beats unbounded caching of a burst).
  static constexpr size_t kMaxScratch = 32;

  std::shared_ptr<const VariantPlan> plan_;
  std::vector<size_t> coverage_;  // coverage_[slot] = global slot; [0] is the leader
  std::vector<std::vector<size_t>> groups_;  // positions in coverage_; [0][0] is the leader
  bool owns_baseline_;
  bool warm_engines_;  // false: every engine call runs without a workspace
  std::vector<std::string> labels_;
  mutable Freelist<std::unique_ptr<SessionScratch>, kMaxScratch> scratches_;
};

// Runs the static analyzer over a freshly planned (or injection-overlaid)
// plan, stores the report on the plan, and converts analyzer errors into the
// build-time Status the caller propagates. Warnings and notes ride along on
// plan->analysis without failing anything.
Status AttachAnalysis(VariantPlan* plan) {
  analysis::AnalysisReport report = analysis::AnalyzePlan(*plan);
  Status status = report.ToStatus("plan analysis");
  plan->analysis = std::make_shared<const analysis::AnalysisReport>(std::move(report));
  return status;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) {
      out += "+";
    }
    out += name;
  }
  return out.empty() ? "none" : out;
}

// Every field back to its default; vectors cleared, not shrunk — their
// capacity is the entire point of recycling.
void ResetReport(RunReport* r) {
  r->backend.clear();
  r->outcome = NvxOutcome::kOk;
  r->detection.reset();
  r->divergence.reset();
  r->aborted_all = false;
  r->return_value.reset();
  r->total_time = 0.0;
  r->baseline_time.reset();
  r->variant_finish_time.clear();
  r->variant_standalone_time.clear();
  r->variant_compute_scale.clear();
  r->synced_syscalls = 0;
  r->ignored_syscalls = 0;
  r->lockstep_barriers = 0;
  r->lock_acquisitions = 0;
  r->avg_syscall_gap = 0.0;
  r->max_syscall_gap = 0;
}

// Process-wide RunReport shell freelist (see AcquireReport/RecycleReport in
// nvx.h). Bounded so a burst of recycles cannot pin memory.
Freelist<RunReport, 64>& Reports() {
  // Leaked intentionally: reports may be recycled during static teardown.
  static auto* freelist = new Freelist<RunReport, 64>();
  return *freelist;
}

}  // namespace

RunReport AcquireReport() { return Reports().Take(); }

void RecycleReport(RunReport&& report) {
  ResetReport(&report);
  Reports().Put(std::move(report));
}

StatusOr<std::unique_ptr<Backend>> MakeTraceBackend(std::shared_ptr<const VariantPlan> plan,
                                                    std::vector<size_t> members,
                                                    bool owns_baseline) {
  if (plan == nullptr) {
    return InvalidArgument("MakeTraceBackend: null plan");
  }
  if (!plan->benchmark.has_value() && !plan->server.has_value()) {
    return InvalidArgument("MakeTraceBackend: plan has no target");
  }
  if (members.empty()) {
    return InvalidArgument("MakeTraceBackend: empty member list");
  }
  if (members[0] != 0) {
    return InvalidArgument("MakeTraceBackend: local slot 0 must be the leader (global slot 0)");
  }
  std::vector<bool> seen(plan->n_variants(), false);
  for (size_t global : members) {
    if (global >= plan->n_variants()) {
      return InvalidArgument("MakeTraceBackend: member " + std::to_string(global) +
                             " out of range for a " + std::to_string(plan->n_variants()) +
                             "-variant plan");
    }
    if (seen[global]) {
      return InvalidArgument("MakeTraceBackend: member " + std::to_string(global) +
                             " listed twice");
    }
    seen[global] = true;
  }
  std::vector<size_t> group(members.size());
  std::iota(group.begin(), group.end(), 0);
  return std::unique_ptr<Backend>(new TraceBackend(std::move(plan), std::move(members),
                                                   {std::move(group)}, owns_baseline,
                                                   /*warm_engines=*/true));
}

const char* NvxOutcomeName(NvxOutcome outcome) {
  static constexpr support::EnumNameEntry kNames[] = {
      {static_cast<int>(NvxOutcome::kOk), "ok"},
      {static_cast<int>(NvxOutcome::kDetected), "detected"},
      {static_cast<int>(NvxOutcome::kDiverged), "diverged"},
  };
  return support::EnumName(kNames, outcome);
}

StatusOr<double> RunReport::Overhead() const {
  if (!baseline_time.has_value() || *baseline_time <= 0.0) {
    return FailedPrecondition("no valid baseline time in this report");
  }
  return total_time / *baseline_time - 1.0;
}

StatusOr<RunReport> RunReport::Merge(size_t n_variants,
                                     const std::vector<PartialReport>& partials) {
  if (partials.empty()) {
    return InvalidArgument("Merge() needs at least one partial report");
  }

  // Start from a recycled shell: merged runs reuse the same freelist the
  // shard reports came from, so a warm sharded session stops allocating too.
  RunReport merged = AcquireReport();
  merged.variant_finish_time.assign(n_variants, 0.0);
  merged.variant_compute_scale.assign(n_variants, 0.0);
  bool any_standalone = false;
  for (const auto& partial : partials) {
    any_standalone = any_standalone || !partial.report.variant_standalone_time.empty();
  }
  if (any_standalone) {
    merged.variant_standalone_time.assign(n_variants, 0.0);
  }

  // A partial owns every covered slot except a leader replica it only ran
  // for synchronization (global slot 0 when !owns_baseline).
  std::vector<bool> owned(n_variants, false);
  const PartialReport* detect_winner = nullptr;
  const PartialReport* diverge_winner = nullptr;
  double gap_sum = 0.0;
  double gap_weight = 0.0;

  for (const auto& partial : partials) {
    const RunReport& r = partial.report;
    if (partial.variant_index.empty() && !partial.owns_baseline) {
      continue;  // an empty shard contributes nothing
    }
    if (merged.backend.empty()) {
      merged.backend = r.backend;
    }
    if (partial.variant_index.size() != r.variant_finish_time.size()) {
      return InvalidArgument("partial covers " + std::to_string(partial.variant_index.size()) +
                             " slot(s) but reports " +
                             std::to_string(r.variant_finish_time.size()) + " finish time(s)");
    }
    for (size_t local = 0; local < partial.variant_index.size(); ++local) {
      const size_t global = partial.variant_index[local];
      if (global >= n_variants) {
        return InvalidArgument("partial maps local slot " + std::to_string(local) +
                               " to variant " + std::to_string(global) + ", but the session has " +
                               std::to_string(n_variants));
      }
      if (!partial.owns_baseline && global == 0) {
        continue;  // leader replica: run for synchronization, owned elsewhere
      }
      if (owned[global]) {
        return InvalidArgument("variant " + std::to_string(global) +
                               " is owned by two partial reports");
      }
      owned[global] = true;
      merged.variant_finish_time[global] = r.variant_finish_time[local];
      if (local < r.variant_compute_scale.size()) {
        merged.variant_compute_scale[global] = r.variant_compute_scale[local];
      }
      if (any_standalone && local < r.variant_standalone_time.size()) {
        merged.variant_standalone_time[global] = r.variant_standalone_time[local];
      }
    }

    // Shards run concurrently: the session ends when the slowest shard does.
    merged.total_time = std::max(merged.total_time, r.total_time);
    if (partial.owns_baseline) {
      merged.baseline_time = r.baseline_time;
      merged.return_value = r.return_value;
    }

    // Counters sum: each shard genuinely performs that monitor work (the
    // leader-replica redundancy is a real cost, not an accounting artifact).
    merged.synced_syscalls += r.synced_syscalls;
    merged.ignored_syscalls += r.ignored_syscalls;
    merged.lockstep_barriers += r.lockstep_barriers;
    merged.lock_acquisitions += r.lock_acquisitions;
    merged.max_syscall_gap = std::max(merged.max_syscall_gap, r.max_syscall_gap);
    gap_sum += r.avg_syscall_gap * static_cast<double>(r.synced_syscalls);
    gap_weight += static_cast<double>(r.synced_syscalls);

    // Incident lattice bookkeeping: within a class the earliest virtual
    // abort time wins; ties resolve to the earliest-listed partial.
    if (r.outcome == NvxOutcome::kDetected) {
      if (!r.detection.has_value()) {
        return InvalidArgument("detected partial report carries no detection");
      }
      if (detect_winner == nullptr || r.total_time < detect_winner->report.total_time) {
        detect_winner = &partial;
      }
    } else if (r.outcome == NvxOutcome::kDiverged) {
      if (!r.divergence.has_value()) {
        return InvalidArgument("diverged partial report carries no divergence");
      }
      if (diverge_winner == nullptr || r.total_time < diverge_winner->report.total_time) {
        diverge_winner = &partial;
      }
    }
  }
  merged.avg_syscall_gap = gap_weight > 0.0 ? gap_sum / gap_weight : 0.0;

  auto to_global = [](const PartialReport& partial, size_t local) -> StatusOr<size_t> {
    if (local >= partial.variant_index.size()) {
      return InvalidArgument("incident attributed to local slot " + std::to_string(local) +
                             ", outside the partial's coverage");
    }
    return partial.variant_index[local];
  };

  // Outcome lattice: Detection > Divergence > Clean. Attribution stays
  // leader-relative — every shard compares against its leader replica, so a
  // remapped incident means the same thing it would unsharded.
  if (detect_winner != nullptr) {
    StatusOr<size_t> global = to_global(*detect_winner, detect_winner->report.detection->variant);
    if (!global.ok()) {
      return global.status();
    }
    merged.outcome = NvxOutcome::kDetected;
    merged.detection = detect_winner->report.detection;
    merged.detection->variant = *global;
    merged.aborted_all = true;
  } else if (diverge_winner != nullptr) {
    StatusOr<size_t> global = to_global(*diverge_winner, diverge_winner->report.divergence->variant);
    if (!global.ok()) {
      return global.status();
    }
    merged.outcome = NvxOutcome::kDiverged;
    merged.divergence = diverge_winner->report.divergence;
    merged.divergence->variant = *global;
    if (!merged.divergence->expected.empty() || !merged.divergence->actual.empty()) {
      // Trace-style detail names the variant: rebuild it with the global index.
      merged.divergence->detail = "variant " + std::to_string(*global) + " expected '" +
                                  merged.divergence->expected + "' got '" +
                                  merged.divergence->actual + "'";
    }
    merged.aborted_all = true;
  }
  return merged;
}

StatusOr<RunReport> NvxSession::Run(const RunRequest& request) const {
  StatusOr<RunReport> report = backend_->Run(request);
  if (report.ok()) {
    Notify(*report);
  }
  return report;
}

void NvxSession::Notify(const RunReport& report) const {
  // One lock around the whole sequence: concurrent completions (pool
  // workers) deliver their finish/incident callbacks as uninterleaved
  // per-run blocks, in completion order.
  std::lock_guard<std::mutex> lock(*observer_mu_);
  if (observer_.on_variant_finish) {
    for (size_t v = 0; v < report.variant_finish_time.size(); ++v) {
      observer_.on_variant_finish(v, report.variant_finish_time[v]);
    }
  }
  if (report.outcome != NvxOutcome::kOk && observer_.on_incident) {
    observer_.on_incident(report);
  }
}

// ---------------------------------------------------------------------------
// NvxBuilder
// ---------------------------------------------------------------------------

NvxBuilder& NvxBuilder::Module(const ir::Module& module) {
  module_ = &module;
  return *this;
}
NvxBuilder& NvxBuilder::Benchmark(const workload::BenchmarkSpec& spec) {
  benchmark_ = spec;
  return *this;
}
NvxBuilder& NvxBuilder::Server(const workload::ServerSpec& spec) {
  server_ = spec;
  return *this;
}
NvxBuilder& NvxBuilder::Variants(size_t n) {
  n_variants_ = n;
  return *this;
}
NvxBuilder& NvxBuilder::DistributeChecks(san::SanitizerId sanitizer) {
  strategy_ = DistributionStrategy::kCheck;
  check_sanitizer_ = sanitizer;
  return *this;
}
NvxBuilder& NvxBuilder::DistributeSanitizers(std::vector<san::SanitizerId> sanitizers) {
  strategy_ = DistributionStrategy::kSanitizer;
  sanitizers_ = std::move(sanitizers);
  return *this;
}
NvxBuilder& NvxBuilder::DistributeUbsanSubSanitizers() {
  strategy_ = DistributionStrategy::kUbsanSub;
  return *this;
}
NvxBuilder& NvxBuilder::ProfilingWorkload(std::vector<profile::WorkloadRun> workload) {
  profiling_workload_ = std::move(workload);
  return *this;
}
NvxBuilder& NvxBuilder::InjectDetection(size_t variant, std::string detector) {
  detect_injections_.push_back({variant, std::move(detector)});
  return *this;
}
NvxBuilder& NvxBuilder::InjectDivergence(size_t variant, std::string payload) {
  diverge_injections_.push_back({variant, std::move(payload)});
  return *this;
}
NvxBuilder& NvxBuilder::Shards(size_t k) {
  shards_ = k;
  return *this;
}
NvxBuilder& NvxBuilder::Remote(std::vector<net::Endpoint> endpoints, net::RemoteOptions options) {
  remote_endpoints_ = std::move(endpoints);
  remote_options_ = options;
  remote_ = true;
  return *this;
}
NvxBuilder& NvxBuilder::Lockstep(nxe::LockstepMode mode) {
  engine_config_.mode = mode;
  return *this;
}
NvxBuilder& NvxBuilder::Cores(int cores) {
  engine_config_.cost.cores = cores;
  return *this;
}
NvxBuilder& NvxBuilder::BackgroundLoad(double load) {
  engine_config_.cost.background_load = load;
  return *this;
}
NvxBuilder& NvxBuilder::RingCapacity(size_t slots) {
  engine_config_.ring_capacity = slots;
  return *this;
}
NvxBuilder& NvxBuilder::Seed(uint64_t seed) {
  seed_ = seed;
  return *this;
}
NvxBuilder& NvxBuilder::MeasureStandalone(bool measure) {
  measure_standalone_ = measure;
  return *this;
}
NvxBuilder& NvxBuilder::SetObserver(Observer observer) {
  observer_ = std::move(observer);
  return *this;
}
NvxBuilder& NvxBuilder::WithPlanCache(std::shared_ptr<PlanCache> cache) {
  plan_cache_ = std::move(cache);
  return *this;
}
NvxBuilder& NvxBuilder::PooledEngines(bool pooled) {
  pooled_engines_ = pooled;
  return *this;
}

Status NvxBuilder::ValidateTarget() const {
  const int targets = (module_ != nullptr ? 1 : 0) + (benchmark_.has_value() ? 1 : 0) +
                      (server_.has_value() ? 1 : 0);
  if (targets == 0) {
    return InvalidArgument("no target: call Module(), Benchmark() or Server()");
  }
  if (targets > 1) {
    return InvalidArgument("multiple targets: pick one of Module()/Benchmark()/Server()");
  }
  if (n_variants_ == 0) {
    return InvalidArgument("Variants(n) requires n >= 1");
  }
  if (strategy_ == DistributionStrategy::kSanitizer && sanitizers_.empty()) {
    return InvalidArgument("DistributeSanitizers() requires at least one sanitizer");
  }
  // A cache that can never be consulted is a misconfiguration, not a no-op:
  // the user opted into amortization and would silently re-plan forever.
  if (plan_cache_ != nullptr && module_ != nullptr) {
    return InvalidArgument(
        "WithPlanCache() applies to trace targets (Benchmark/Server); module targets are not "
        "cached");
  }
  if (shards_.has_value()) {
    if (*shards_ == 0) {
      return InvalidArgument("Shards(k) requires k >= 1");
    }
    if (module_ != nullptr) {
      return InvalidArgument(
          "Shards() requires a trace target (Benchmark/Server); the IR backend executes whole "
          "sessions only");
    }
  }
  if (remote_) {
    if (remote_endpoints_.empty()) {
      return InvalidArgument("Remote() requires at least one executor endpoint");
    }
    if (module_ != nullptr) {
      return InvalidArgument(
          "Remote() requires a trace target (Benchmark/Server); only VariantPlans travel the "
          "wire");
    }
    if (remote_options_.timeout_ms <= 0 || remote_options_.max_attempts <= 0) {
      return InvalidArgument("RemoteOptions: timeout_ms and max_attempts must be >= 1");
    }
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Backend>> NvxBuilder::BuildBackend() const {
  Status valid = ValidateTarget();
  if (!valid.ok()) {
    return valid;
  }
  if (module_ != nullptr) {
    return BuildIrBackend();
  }

  StatusOr<std::shared_ptr<const VariantPlan>> resolved = ResolveSharedPlan();
  if (!resolved.ok()) {
    return resolved.status();
  }
  std::shared_ptr<const VariantPlan> shared = std::move(*resolved);

  if (remote_) {
    // The group count defaults to the fleet size; Shards(k) overrides it so
    // Remote ≡ Shards(k) equivalence can be tested group-for-group.
    const size_t k = shards_.value_or(remote_endpoints_.size());
    if (k == 0) {
      return InvalidArgument("Remote() requires at least one executor endpoint");
    }
    std::vector<std::vector<size_t>> groups = ShardMemberGroups(shared->n_variants(), k);
    return std::unique_ptr<Backend>(new net::RemoteBackend(
        std::move(shared), std::move(groups), remote_endpoints_, remote_options_));
  }

  // One group unless Shards(k): group 0 carries the baseline/leader slot,
  // followers are dealt round-robin, and every group replicates the leader
  // (ShardMemberGroups, the rule Remote() shares).
  std::vector<size_t> all(shared->n_variants());
  std::iota(all.begin(), all.end(), 0);
  std::vector<std::vector<size_t>> groups =
      ShardMemberGroups(shared->n_variants(), shards_.value_or(1));
  return std::unique_ptr<Backend>(new TraceBackend(std::move(shared), std::move(all),
                                                   std::move(groups), /*owns_baseline=*/true,
                                                   pooled_engines_));
}

StatusOr<NvxSession> NvxBuilder::Build() const {
  StatusOr<std::unique_ptr<Backend>> backend = BuildBackend();
  if (!backend.ok()) {
    return backend.status();
  }
  NvxSession session(std::move(*backend));
  session.SetObserver(observer_);
  return session;
}

StatusOr<AsyncNvxSession> NvxBuilder::BuildAsync(
    std::shared_ptr<support::ThreadPool> pool) const {
  StatusOr<NvxSession> session = Build();
  if (!session.ok()) {
    return session.status();
  }
  return AsyncNvxSession(std::move(*session), std::move(pool));
}

StatusOr<std::unique_ptr<Backend>> NvxBuilder::BuildIrBackend() const {
  if (!detect_injections_.empty()) {
    return InvalidArgument(
        "InjectDetection() needs a trace target; IR detections come from the program itself");
  }
  if (!diverge_injections_.empty()) {
    return InvalidArgument(
        "InjectDivergence() needs a trace target; IR divergence comes from the program itself");
  }
  if (strategy_ == DistributionStrategy::kNone) {
    return InvalidArgument(
        "a module target needs a distribution strategy (DistributeChecks, "
        "DistributeSanitizers or DistributeUbsanSubSanitizers)");
  }
  if (strategy_ == DistributionStrategy::kCheck && profiling_workload_.empty()) {
    return InvalidArgument("check distribution on a module requires ProfilingWorkload()");
  }
  // Fail malformed modules here, with a build-time Status, instead of
  // letting them surface mid-interp (or mid-instrumentation) later.
  Status module_ok = ir::VerifyModule(*module_);
  if (!module_ok.ok()) {
    return InvalidArgument("Module() failed IR verification: " + module_ok.message());
  }

  // The expensive half: instrument + profile + partition + slice.
  core::Options options;
  options.n_variants = n_variants_;
  StatusOr<core::IrNvxSystem> system = InvalidArgument("unreachable");
  switch (strategy_) {
    case DistributionStrategy::kNone:
      return InvalidArgument("unreachable: rejected above");
    case DistributionStrategy::kCheck:
      system = core::IrNvxSystem::CreateCheckDistributed(*module_, check_sanitizer_,
                                                         profiling_workload_, options);
      break;
    case DistributionStrategy::kSanitizer:
      system = core::IrNvxSystem::CreateSanitizerDistributed(*module_, sanitizers_, options);
      break;
    case DistributionStrategy::kUbsanSub:
      system = core::IrNvxSystem::CreateUbsanDistributed(*module_, options);
      break;
  }
  if (!system.ok()) {
    return system.status();
  }

  if (strategy_ == DistributionStrategy::kCheck) {
    // Cross-check the sliced variants against an independent
    // re-instrumentation: exact check retention per subset, metadata
    // maintenance everywhere (the §3.2 claim the slicer could break).
    analysis::AnalysisReport report;
    std::vector<const ir::Module*> variant_modules;
    variant_modules.reserve(system->n_variants());
    for (size_t v = 0; v < system->n_variants(); ++v) {
      variant_modules.push_back(&system->variant(v));
    }
    analysis::AnalyzeCheckDistribution(*module_, check_sanitizer_, system->check_plan(),
                                       variant_modules, &report);
    Status analyzed = report.ToStatus("IR analysis");
    if (!analyzed.ok()) {
      return analyzed;
    }
  }

  const bool has_check_plan = strategy_ == DistributionStrategy::kCheck;
  std::vector<std::string> labels;
  for (size_t v = 0; v < system->n_variants(); ++v) {
    if (!system->sanitizer_groups().empty()) {
      labels.push_back(JoinNames(system->sanitizer_groups()[v]));
    } else {
      labels.push_back(std::string(san::SanitizerName(check_sanitizer_)) + "-checks/v" +
                       std::to_string(v));
    }
  }

  return std::unique_ptr<Backend>(new IrBackend(std::move(*system), module_->Clone(),
                                                options.interpreter_fuel, has_check_plan,
                                                std::move(labels)));
}

// The planning inputs as a plan with no strategy output: enough for
// CacheKey(), shared by PlanCacheKey() (pre-planning lookup) and PlanBase().
VariantPlan NvxBuilder::SkeletonPlan() const {
  VariantPlan plan;
  plan.benchmark = benchmark_;
  plan.server = server_;
  plan.strategy = strategy_;
  plan.seed = seed_;
  plan.measure_standalone = measure_standalone_;
  plan.requested_variants = n_variants_;
  plan.check_sanitizer = check_sanitizer_;
  plan.sanitizers = sanitizers_;
  plan.engine_config = engine_config_;
  plan.engine_config.cache_sensitivity =
      benchmark_.has_value() ? benchmark_->cache_sensitivity : 1.0;
  return plan;
}

StatusOr<std::string> NvxBuilder::PlanCacheKey() const {
  Status valid = ValidateTarget();
  if (!valid.ok()) {
    return valid;
  }
  if (module_ != nullptr) {
    return InvalidArgument(
        "PlanCacheKey() requires a trace target (Benchmark/Server); module targets are not "
        "cached");
  }
  if (server_.has_value() && strategy_ != DistributionStrategy::kNone) {
    return InvalidArgument("server targets support identical clones only (no distribution)");
  }
  // The skeleton's key IS the base plan's key: CacheKey() reads planning
  // inputs only, never the derived specs (planning is deterministic).
  return SkeletonPlan().CacheKey();
}

// Attack splices ride on top of a base plan: validated against its specs,
// stamped on, and the plan re-analyzed, because injections change the traces
// the base plan's report describes. A clean session (the common case) leaves
// the plan untouched.
Status NvxBuilder::StampInjections(VariantPlan* plan) const {
  const size_t n_specs = plan->specs.size();
  for (const auto& injection : detect_injections_) {
    if (injection.variant >= n_specs) {
      return InvalidArgument("InjectDetection() variant index " +
                             std::to_string(injection.variant) + " out of range (have " +
                             std::to_string(n_specs) + " variants)");
    }
  }
  for (const auto& injection : diverge_injections_) {
    if (injection.variant >= n_specs) {
      return InvalidArgument("InjectDivergence() variant index " +
                             std::to_string(injection.variant) + " out of range (have " +
                             std::to_string(n_specs) + " variants)");
    }
  }
  if (detect_injections_.empty() && diverge_injections_.empty()) {
    return Status::Ok();
  }
  plan->detect_injections = detect_injections_;
  plan->diverge_injections = diverge_injections_;
  return AttachAnalysis(plan);
}

StatusOr<VariantPlan> NvxBuilder::PlanUncached() const {
  StatusOr<VariantPlan> plan = PlanBase();
  if (!plan.ok()) {
    return plan;
  }
  Status stamped = StampInjections(&*plan);
  if (!stamped.ok()) {
    return stamped;
  }
  return plan;
}

StatusOr<std::shared_ptr<const VariantPlan>> NvxBuilder::ResolveSharedPlan() const {
  if (plan_cache_ == nullptr) {
    StatusOr<VariantPlan> plan = PlanUncached();
    if (!plan.ok()) {
      return plan.status();
    }
    return std::shared_ptr<const VariantPlan>(
        std::make_shared<const VariantPlan>(std::move(*plan)));
  }

  StatusOr<std::string> key = PlanCacheKey();
  if (!key.ok()) {
    return key.status();
  }
  bool hit = false;
  StatusOr<std::shared_ptr<const VariantPlan>> base =
      plan_cache_->GetOrPlan(*key, [this] { return PlanBase(); }, &hit);
  if (observer_.on_plan_cache) {
    observer_.on_plan_cache(*key, hit);
  }
  if (!base.ok() || (detect_injections_.empty() && diverge_injections_.empty())) {
    return base;
  }
  // Cached entries stay injection-free, so every attack scenario of one
  // configuration shares one cache slot: the overlay stamps a copy.
  auto overlaid = std::make_shared<VariantPlan>(**base);
  Status stamped = StampInjections(overlaid.get());
  if (!stamped.ok()) {
    return stamped;
  }
  return std::shared_ptr<const VariantPlan>(std::move(overlaid));
}

StatusOr<VariantPlan> NvxBuilder::PlanVariants() const {
  if (plan_cache_ == nullptr) {
    return PlanUncached();  // no shared_ptr round-trip, no extra copy
  }
  StatusOr<std::shared_ptr<const VariantPlan>> shared = ResolveSharedPlan();
  if (!shared.ok()) {
    return shared.status();
  }
  return **shared;  // cached entries are shared — callers get a copy
}

StatusOr<VariantPlan> NvxBuilder::PlanBase() const {
  Status valid = ValidateTarget();
  if (!valid.ok()) {
    return valid;
  }
  if (module_ != nullptr) {
    return InvalidArgument(
        "PlanVariants() requires a trace target (Benchmark/Server); IR planning lives inside "
        "core::IrNvxSystem");
  }
  if (server_.has_value() && strategy_ != DistributionStrategy::kNone) {
    return InvalidArgument("server targets support identical clones only (no distribution)");
  }

  VariantPlan plan = SkeletonPlan();

  std::vector<workload::VariantSpec>& specs = plan.specs;
  std::vector<std::string>& labels = plan.labels;
  std::optional<distribution::CheckDistributionPlan>& check_plan = plan.check_plan;
  std::vector<std::vector<std::string>>& sanitizer_groups = plan.sanitizer_groups;

  switch (strategy_) {
    case DistributionStrategy::kNone: {
      // Matches workload::BuildIdentical{,Server}Variants jitter conventions.
      const uint64_t jitter_base = server_.has_value() ? 2000 : 1000;
      for (size_t v = 0; v < n_variants_; ++v) {
        workload::VariantSpec spec;
        spec.name = "v" + std::to_string(v);
        spec.jitter_seed = jitter_base + v;
        specs.push_back(spec);
        labels.push_back("clone");
      }
      break;
    }
    case DistributionStrategy::kCheck: {
      auto overhead = SpecOverhead(*benchmark_, check_sanitizer_);
      if (!overhead.ok()) {
        return overhead.status();
      }
      const profile::OverheadProfile profile =
          workload::SynthesizeFunctionProfile(*benchmark_, check_sanitizer_, seed_);
      auto plan = distribution::PlanCheckDistribution(profile, n_variants_);
      if (!plan.ok()) {
        return plan.status();
      }
      const double residual = *overhead * workload::ResidualFraction(check_sanitizer_);
      for (size_t v = 0; v < n_variants_; ++v) {
        workload::VariantSpec spec;
        spec.name = "v" + std::to_string(v);
        spec.compute_scale = 1.0 + plan->predicted_overhead[v] + residual;
        spec.jitter_seed = 100 + v;
        spec.sanitizers = {check_sanitizer_};
        specs.push_back(spec);
        labels.push_back(std::string(san::SanitizerName(check_sanitizer_)) + "-checks/v" +
                         std::to_string(v));
      }
      check_plan = std::move(*plan);
      break;
    }
    case DistributionStrategy::kSanitizer: {
      // Drop sanitizers the benchmark cannot run (the paper's gcc/MSan case).
      std::vector<san::SanitizerId> usable;
      for (san::SanitizerId id : sanitizers_) {
        if (id == san::SanitizerId::kMSan && !benchmark_->overheads.msan_supported) {
          continue;
        }
        usable.push_back(id);
      }
      if (usable.empty()) {
        return FailedPrecondition("no requested sanitizer is supported on benchmark " +
                                  benchmark_->name);
      }
      const size_t n = std::min(n_variants_, usable.size());
      auto plan = distribution::PlanWholeSanitizerDistribution(usable, n);
      if (!plan.ok()) {
        return plan.status();
      }
      for (size_t v = 0; v < plan->groups.size(); ++v) {
        workload::VariantSpec spec;
        spec.jitter_seed = 700 + v;
        double scale = 1.0;
        std::vector<std::string> group_names;
        for (size_t item : plan->groups[v]) {
          const san::SanitizerId id = usable[item];
          auto overhead = SpecOverhead(*benchmark_, id);
          if (!overhead.ok()) {
            return overhead.status();
          }
          scale += *overhead;
          spec.sanitizers.push_back(id);
          group_names.push_back(san::SanitizerName(id));
        }
        spec.name = JoinNames(group_names);
        spec.compute_scale = scale;
        specs.push_back(spec);
        labels.push_back(JoinNames(group_names));
        sanitizer_groups.push_back(std::move(group_names));
      }
      break;
    }
    case DistributionStrategy::kUbsanSub: {
      // Scale each sub-sanitizer's catalog overhead to this benchmark.
      const double scale_factor = benchmark_->overheads.ubsan / san::UBSanCombinedOverhead();
      std::vector<distribution::ProtectionUnit> units;
      for (const auto& sub : san::UBSanSubSanitizers()) {
        units.push_back({sub.name, sub.mean_overhead * scale_factor});
      }
      auto plan = distribution::PlanSanitizerDistribution(units, n_variants_, nullptr);
      if (!plan.ok()) {
        return plan.status();
      }
      const double residual =
          benchmark_->overheads.ubsan * workload::ResidualFraction(san::SanitizerId::kUBSan);
      for (size_t v = 0; v < plan->groups.size(); ++v) {
        workload::VariantSpec spec;
        spec.name = "ubsan/v" + std::to_string(v);
        spec.compute_scale = 1.0 + plan->group_overheads[v] + residual;
        spec.jitter_seed = 300 + v;
        spec.sanitizers = {san::SanitizerId::kUBSan};
        specs.push_back(spec);
        std::vector<std::string> group_names;
        for (size_t item : plan->groups[v]) {
          group_names.push_back(units[item].name);
        }
        labels.push_back(JoinNames(group_names));
        sanitizer_groups.push_back(std::move(group_names));
      }
      break;
    }
  }

  // Analyze at plan time: the report is cached with the plan (PlanCache
  // stores injection-free bases), and analyzer errors fail the build here —
  // before any backend, engine, or wire encoder ever sees the plan.
  Status analyzed = AttachAnalysis(&plan);
  if (!analyzed.ok()) {
    return analyzed;
  }
  return plan;
}

}  // namespace api
}  // namespace bunshin
