// The N-version execution engine (Bunshin §3.3 / §4.2).
//
// The engine runs N variant traces in virtual time. All ordering, comparison,
// filtering, and abort logic is the real engine logic; only the clock is
// simulated (a deterministic discrete-event scheduler), which is what lets a
// single-core host regenerate the paper's multi-core measurements.
//
// Synchronization semantics implemented:
//  * strict-lockstep: the leader executes a syscall only after every follower
//    has arrived and agreed on the syscall number + arguments + payload;
//  * selective-lockstep: the leader publishes syscall arguments/results into
//    a bounded ring buffer and runs ahead; followers consume at their own
//    pace; lockstep is still enforced for IO-write-related syscalls;
//  * sanitizer-introduced syscalls are excluded: synchronization starts at
//    main() (pre_main records ignored), memory-management syscalls are
//    skipped, and post-exit records are ignored (first-exit-handler rule);
//  * weak determinism: followers replay the leader's total order of lock
//    acquisitions (Kendo-style, via the synccall hook);
//  * divergence in syscall sequence or arguments alerts and aborts all
//    variants; a variant whose sanitizer check fires (kDetect) likewise stops
//    the whole system with the detection report.
#ifndef BUNSHIN_SRC_NXE_ENGINE_H_
#define BUNSHIN_SRC_NXE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/nxe/trace.h"
#include "src/support/status.h"

namespace bunshin {
namespace nxe {

enum class LockstepMode { kStrict, kSelective };

const char* LockstepModeName(LockstepMode mode);

// Abstract cycle costs of engine mechanisms plus the hardware model.
struct CostModel {
  // Cost of any syscall's kernel work (paid by the baseline too).
  double kernel_syscall = 3.0;
  // Extra per-trap cost of the patched syscall-table hook.
  double trap_hook = 0.6;
  // Checking in/out of the shared sync slot (leader) / fetching results
  // without performing the syscall (follower).
  double sync_slot = 0.5;
  double result_fetch = 0.4;
  // Reschedule penalty paid by a variant that had to sleep in a strict wait.
  double wait_wakeup = 1.0;
  // synccall overhead per locking primitive (leader append / follower check).
  double synccall = 1.7;
  // Barrier/lock primitive base cost (paid by the baseline too).
  double lock_primitive = 0.5;

  // Hardware model.
  int cores = 4;
  // LLC pressure: compute is scaled by
  //   1 + llc_alpha * cache_sensitivity * (n_variants - 1)^llc_exponent.
  double llc_alpha = 0.0035;
  double llc_exponent = 1.90;
  // Background CPU load in [0, 1): inflates wait/wakeup costs (a sleeping
  // variant competes with the stressor to get rescheduled).
  double background_load = 0.02;
  double load_wait_coeff = 5.0;

  double LlcMultiplier(size_t n_variants, double cache_sensitivity) const;
  // Time-sharing penalty when runnable threads exceed available cores.
  double SerializationMultiplier(size_t n_variants, size_t threads_per_variant) const;
  double WakeupCost() const;
};

struct EngineConfig {
  LockstepMode mode = LockstepMode::kStrict;
  // Ring buffer slots per execution group (selective mode run-ahead bound).
  size_t ring_capacity = 64;
  CostModel cost;
  // Per-benchmark LLC sensitivity (how much the workload suffers from
  // sharing cache with its clones), around 1.0.
  double cache_sensitivity = 1.0;
  // Session-wide variant count for contention modeling, or 0 to use the
  // number of traces passed to Run(). When one session's variants are
  // sharded across several engine instances, each instance executes a trace
  // subset but all N variants still share the host: set this to N so a
  // shard engine can be constructed over a spec subset (no re-profiling)
  // and still charge the full session's LLC pressure and core time-sharing.
  // Never lowers the width below the traces actually being run.
  size_t contention_variants = 0;
};

struct Divergence {
  size_t variant = 0;  // which follower disagreed (or exited early)
  size_t thread = 0;
  size_t sync_index = 0;  // position in the filtered sync stream
  std::string expected;   // leader record
  std::string actual;     // follower record (or "<missing>")
};

struct DetectionReport {
  size_t variant = 0;
  size_t thread = 0;
  std::string detector;  // e.g. "__asan_report_store"
};

struct SyncReport {
  // Outcome.
  bool completed = false;  // all variants ran to completion, no incident
  std::optional<Divergence> divergence;
  std::optional<DetectionReport> detection;
  bool aborted_all = false;  // monitor killed every variant (on any incident)

  // Timing.
  std::vector<double> variant_finish_time;
  double total_time = 0.0;

  // Telemetry.
  uint64_t synced_syscalls = 0;
  uint64_t ignored_syscalls = 0;  // sanitizer-introduced (all three classes)
  uint64_t lockstep_barriers = 0;
  uint64_t lock_acquisitions = 0;
  // Attack-window metric (§5.3): leader-to-slowest-follower distance in
  // syscalls, sampled at every leader publish (selective mode).
  double avg_syscall_gap = 0.0;
  uint64_t max_syscall_gap = 0;

  // Synchronization overhead relative to `baseline_time`
  // (total_time / baseline_time - 1). A non-positive baseline is an error,
  // not a silent 0.0 — callers must check.
  StatusOr<double> OverheadVs(double baseline_time) const {
    if (baseline_time <= 0.0) {
      return InvalidArgument("baseline_time must be > 0");
    }
    return total_time / baseline_time - 1.0;
  }
};

// Persistent scheduler state for the warm-run path (docs/warm_path.md). One
// workspace holds every arena both Run() schedulers and RunBaseline() use —
// thread records, published-slot/consume-time arenas, readiness indices,
// batch scratch — behind a pimpl so the scheduler internals stay private to
// engine.cc. Passing the same workspace to repeated Run() calls makes the
// steady state allocation-free: every buffer is reset in place (assign on
// capacity-warm vectors) instead of reconstructed, and values are identical
// to a fresh run bit for bit (the buffers only donate capacity, never
// content). A workspace serves one run at a time — concurrent Run() calls
// must use distinct workspaces (the session layer checks one out of a
// process-wide freelist per in-flight run).
class EngineWorkspace {
 public:
  EngineWorkspace();
  ~EngineWorkspace();
  EngineWorkspace(const EngineWorkspace&) = delete;
  EngineWorkspace& operator=(const EngineWorkspace&) = delete;

  // Returns a finish-time buffer previously moved out inside a SyncReport
  // (SyncReport::variant_finish_time). Callers that copy the values out and
  // recycle the vector here close the last per-run allocation: the next run
  // seeds its report from this spare capacity.
  void RecycleFinishBuffer(std::vector<double> buffer);

  struct Impl;
  Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// The widest session Engine::Run accepts, in variants and in threads: the
// event scheduler packs (variant, thread) into one 32-bit word.
inline constexpr size_t kMaxSessionWidth = 0xffff;

class Engine {
 public:
  explicit Engine(EngineConfig config) : config_(config) {}

  const EngineConfig& config() const { return config_; }

  // Synchronizes N variants (variants[0] is the leader). All variants must
  // have the same thread count, and a session wider than kMaxSessionWidth
  // variants or threads is an InvalidArgument.
  //
  // Run() is an event-driven scheduler: per-park-type readiness indices
  // (sync-point arrival counters, ring-slot waiter lists, live-thread
  // counters) re-examine only the threads whose dependency actually changed
  // when a thread parks or a slot publishes, so per-event cost is bounded by
  // the event's participant set — not by rounds x variants x threads. Its
  // observable contract is frozen: the SyncReport (outcomes, clocks, gaps,
  // counters — every field, bit for bit) is identical to RunReference()'s,
  // enforced by the randomized equivalence suite in
  // tests/engine_property_test.cc.
  //
  // With a workspace, scheduler arenas are borrowed from it instead of
  // allocated per run (the warm path); results are bit-identical either way,
  // enforced by the same suite.
  StatusOr<SyncReport> Run(const std::vector<VariantTrace>& variants,
                           EngineWorkspace* workspace = nullptr) const;

  // The retained round-based reference scheduler (the pre-event-driven
  // Run): a fixpoint loop that re-scans all variants x threads per progress
  // step. Semantically identical to Run() on every session Run() accepts,
  // and kept only as the equivalence oracle for property tests and as the
  // baseline for bench/micro_engine_hotpath. Do not use on hot paths.
  StatusOr<SyncReport> RunReference(const std::vector<VariantTrace>& variants) const;

  // Runs a single trace without any engine machinery: the reference time the
  // overhead figures are computed against. A firing sanitizer check aborts
  // the whole standalone run (time-to-abort is returned); a barrier some
  // threads exited before reaching is a malformed trace and errors, exactly
  // as Run() reports it. A workspace makes repeat calls allocation-free,
  // exactly as for Run().
  StatusOr<double> RunBaseline(const VariantTrace& trace,
                               EngineWorkspace* workspace = nullptr) const;

 private:
  EngineConfig config_;
};

}  // namespace nxe
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NXE_ENGINE_H_
