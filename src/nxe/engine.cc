#include "src/nxe/engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "src/support/enum_name.h"

namespace bunshin {
namespace nxe {

const char* LockstepModeName(LockstepMode mode) {
  static constexpr support::EnumNameEntry kNames[] = {
      {static_cast<int>(LockstepMode::kStrict), "strict"},
      {static_cast<int>(LockstepMode::kSelective), "selective"},
  };
  return support::EnumName(kNames, mode);
}

double CostModel::LlcMultiplier(size_t n_variants, double cache_sensitivity) const {
  if (n_variants <= 1) {
    return 1.0;
  }
  return 1.0 + llc_alpha * cache_sensitivity *
                   std::pow(static_cast<double>(n_variants - 1), llc_exponent);
}

double CostModel::SerializationMultiplier(size_t n_variants, size_t threads_per_variant) const {
  // Background load does not serialize compute (the scheduler still gives the
  // app its share); it shows up as slower wakeups — see WakeupCost().
  const double runnable = static_cast<double>(n_variants * threads_per_variant);
  const double ratio = runnable / static_cast<double>(cores);
  if (ratio <= 1.0) {
    return 1.0;
  }
  if (threads_per_variant <= 1) {
    // Single-threaded CPU-bound variants never block: overcommit fully
    // serializes (§5.7's single-core experiment: ~2x for 2 variants).
    return ratio;
  }
  // Multithreaded programs spend much of their time blocked on locks,
  // barriers, and syscalls, so moderate overcommit (plus SMT) is largely
  // absorbed; only a damped fraction shows up as slowdown.
  constexpr double kOvercommitSoftness = 0.015;
  return 1.0 + (ratio - 1.0) * kOvercommitSoftness;
}

double CostModel::WakeupCost() const { return wait_wakeup * (1.0 + load_wait_coeff * background_load); }

// Scheduler-internal types that also appear inside EngineWorkspace::Impl
// (which has external linkage, so these cannot live in the anonymous
// namespace). Everything here is an implementation detail of this file.
namespace detail {

// Why a thread is parked at its current action.
enum class Park {
  kNone,      // still has local work (or is done)
  kSyscall,   // at a sync-relevant syscall
  kLock,      // at a lock acquisition
  kBarrier,   // at an intra-variant barrier
  kDetect,    // sanitizer check fired
  kDone,
};

struct OrderEntry {
  size_t thread = 0;
  double leader_time = 0.0;
};

// Leader-trace shape, gathered by the shared reserve pre-pass: arena sizes
// plus the sync features that decide between the eager fast path (no
// locks/barriers/detects in the leader => threads are independent streams)
// and the round-aligned event scheduler.
struct LeaderSummary {
  std::vector<size_t> pub_base;  // T + 1 prefix sums of leader sync counts
  size_t total_syncs = 0;
  size_t locks = 0;
  bool has_barrier_or_detect = false;
};

// Incremental §5.3 attack-window merge, shared by both Run() schedulers.
// For every published slot k (publish time W_k) the metric needs
// C_v(W_k) = |{ j : consume_time[v][t][j] <= W_k }| for each follower v.
// Publish times per thread and consume times per follower/thread are both
// monotone, so the two streams merge with a pointer: a publish is finalized
// immediately when a recorded consume already exceeds its W, otherwise it
// waits in a contiguous pending range [pend_lo, pend_hi) that the next
// consume with a larger timestamp (or the end of the run) drains. The merge
// is insensitive to how publish and consume events interleave as long as
// each stream arrives in its own order, which both schedulers guarantee.
struct GapMerge {
  size_t T = 0;
  size_t S = 0;
  const size_t* pub_base = nullptr;
  const double* pub_avail = nullptr;
  const double* cons_time = nullptr;
  const size_t* cons_count = nullptr;  // per (f, t), owner-maintained
  std::vector<size_t> min_consumed;    // per slot: min over followers of C_v(W_k)
  std::vector<size_t> ptr, pend_lo, pend_hi;  // per (f, t)

  void Init(size_t n_threads, size_t total_syncs, size_t followers, const size_t* bases,
            const double* avail, const double* consumes, const size_t* counts) {
    T = n_threads;
    S = total_syncs;
    pub_base = bases;
    pub_avail = avail;
    cons_time = consumes;
    cons_count = counts;
    min_consumed.assign(S, SIZE_MAX);
    ptr.assign(followers * T, 0);
    pend_lo.assign(followers * T, 0);
    pend_hi.assign(followers * T, 0);
  }

  void Finalize(size_t t, size_t k, size_t consumed) {
    size_t& m = min_consumed[pub_base[t] + k];
    m = m < consumed ? m : consumed;
  }

  void OnPublish(size_t f, size_t t, size_t k, double when) {
    const size_t ft = f * T + t;
    if (pend_lo[ft] < pend_hi[ft]) {
      pend_hi[ft] = k + 1;  // publishes arrive in slot order
      return;
    }
    const double* ct = &cons_time[f * S + pub_base[t]];
    size_t p = ptr[ft];
    const size_t n = cons_count[ft];
    while (p < n && ct[p] <= when) {
      ++p;
    }
    ptr[ft] = p;
    if (p < n) {
      // A recorded consume already exceeds W_k; later ones are larger still.
      Finalize(t, k, p);
    } else {
      pend_lo[ft] = k;
      pend_hi[ft] = k + 1;
    }
  }

  // Call BEFORE the owner records the consume (cons_count must still be the
  // count of earlier consumes).
  void OnConsume(size_t f, size_t t, double when) {
    const size_t ft = f * T + t;
    size_t lo = pend_lo[ft];
    const size_t hi = pend_hi[ft];
    if (lo >= hi) {
      return;
    }
    // Every consume recorded so far is <= the pending entries' W (that is
    // why they are pending); this one finalizes the fronts it exceeds.
    const size_t n = cons_count[ft];
    const double* wt = &pub_avail[pub_base[t]];
    while (lo < hi && when > wt[lo]) {
      Finalize(t, lo, n);
      ++lo;
    }
    pend_lo[ft] = lo;
    if (lo >= hi) {
      ptr[ft] = n;  // all n recorded consumes are <= any later W
    }
  }

  // End of a completed run: pending slots saw every recorded consume <= W.
  void Flush(size_t followers) {
    for (size_t f = 0; f < followers; ++f) {
      for (size_t t = 0; t < T; ++t) {
        const size_t ft = f * T + t;
        for (size_t k = pend_lo[ft]; k < pend_hi[ft]; ++k) {
          Finalize(t, k, cons_count[ft]);
        }
      }
    }
  }
};

// Flat per-(variant, thread) record of the event-driven scheduler. Padded to
// a 32-byte power-of-two stride: the scheduler walks millions of these per
// second, and a power-of-two stride keeps any single record from straddling
// a cache line (cursor/stream_pos are bounded by the trace length, which a
// 32-bit index covers with orders of magnitude to spare).
struct EvThread {
  double clock = 0.0;
  uint32_t cursor = 0;
  uint32_t stream_pos = 0;  // sync-relevant syscalls completed
  Park park = Park::kNone;
  uint32_t pad0 = 0;
  uint64_t pad1 = 0;
};
static_assert(sizeof(EvThread) == 32, "EvThread must keep its power-of-two stride");

// One variant's walk of the current thread index (eager fast path).
struct Walk {
  const ThreadAction* cur = nullptr;
  const ThreadAction* end = nullptr;
  const ThreadTrace* thread = nullptr;  // resolves the syscall records
  double clock = 0.0;
  size_t pos = 0;       // sync-relevant syscalls completed
  bool parked = false;  // at a sync-relevant syscall (else: done)
};

// ---------------------------------------------------------------------------
// Warm-run buffer structs: every arena a scheduler uses, owned by an
// EngineWorkspace so repeat runs reset capacity-warm vectors in place
// instead of reconstructing them. The schedulers bind these by reference;
// a null-workspace run binds a stack-local instance and behaves exactly as
// the pre-workspace code did.
// ---------------------------------------------------------------------------

struct EventBuffers {
  std::vector<EvThread> th;  // flattened (v, t) -> v * T + t
  std::vector<size_t> pub_base;
  std::vector<const sc::SyscallRecord*> pub_rec;
  std::vector<double> pub_avail;
  std::vector<uint32_t> pub_consumed;
  std::vector<double> cons_time;
  std::vector<size_t> cons_count;
  GapMerge gap;
  std::vector<uint32_t> sys_parked;
  std::vector<uint32_t> barrier_parked;
  std::vector<uint32_t> done_count;
  std::vector<uint32_t> waiters;
  std::vector<uint32_t> waiters_count;
  std::vector<size_t> leader_blocked;
  std::vector<OrderEntry> order_list;
  std::vector<size_t> order_cursor;
  std::vector<double> last_acquire;
  std::vector<uint32_t> lockstep_ready, publish_ready, consume_ready, barrier_ready;
  std::vector<char> in_lockstep, in_publish, in_consume, in_barrier;
  std::vector<char> replay_runnable;  // leader-order prefetch-chain flags
  std::vector<uint32_t> advance_q;
  std::vector<uint32_t> batch_t, batch_p, batch_vt;
  std::vector<uint32_t> batch_v;
};

struct EagerBuffers {
  std::vector<double> startup;
  std::vector<double> vscale;
  std::vector<const sc::SyscallRecord*> pub_rec;
  std::vector<double> pub_avail;
  std::vector<uint32_t> pub_consumed;
  std::vector<double> cons_time;
  std::vector<size_t> cons_count;
  GapMerge gap;
  std::vector<Walk> walks;
  std::vector<double> finish;
};

struct BaselineBuffers {
  std::vector<double> clock;
  std::vector<size_t> cursor;
  std::vector<char> done;
  std::vector<size_t> at_barrier;
};

}  // namespace detail

// The workspace owns one of each buffer family plus the finish-time spare
// that closes the report-vector allocation. Buffer families are 64-byte
// aligned so the workspaces of concurrent runs never false-share a line
// across worker threads.
struct EngineWorkspace::Impl {
  detail::LeaderSummary leader;
  alignas(64) detail::EventBuffers event;
  alignas(64) detail::EagerBuffers eager;
  alignas(64) detail::BaselineBuffers baseline;
  // Capacity donor for SyncReport::variant_finish_time (see
  // RecycleFinishBuffer); moved into the report before a run, handed back by
  // the caller after it copied the values out.
  std::vector<double> finish_spare;
};

EngineWorkspace::EngineWorkspace() : impl_(std::make_unique<Impl>()) {}
EngineWorkspace::~EngineWorkspace() = default;
EngineWorkspace::EngineWorkspace(EngineWorkspace&&) noexcept = default;
EngineWorkspace& EngineWorkspace::operator=(EngineWorkspace&&) noexcept = default;

void EngineWorkspace::RecycleFinishBuffer(std::vector<double> buffer) {
  if (buffer.capacity() > impl_->finish_spare.capacity()) {
    buffer.clear();
    impl_->finish_spare = std::move(buffer);
  }
}

namespace {

using detail::EvThread;
using detail::GapMerge;
using detail::LeaderSummary;
using detail::OrderEntry;
using detail::Park;
using detail::Walk;

// Reference-scheduler-only state (Engine::RunReference allocates fresh per
// run by design — it is the oracle, not a hot path).
struct ThreadState {
  size_t cursor = 0;
  double clock = 0.0;
  size_t stream_pos = 0;  // sync-relevant syscalls completed
  Park park = Park::kNone;
};

struct PublishedSlot {
  sc::SyscallRecord record;
  double avail_time = 0.0;  // when followers may fetch results
};

struct VariantState {
  std::vector<ThreadState> threads;
  size_t order_cursor = 0;         // follower replay position in order_list
  double last_acquire_time = 0.0;  // completion time of this variant's last acquisition
};

// Out-param form so a warm workspace's summary resets in place (assign on a
// capacity-warm vector) instead of reallocating per run.
void SummarizeLeader(const VariantTrace& leader, LeaderSummary* s) {
  const size_t n_threads = leader.threads.size();
  s->pub_base.assign(n_threads + 1, 0);
  s->total_syncs = 0;
  s->locks = 0;
  s->has_barrier_or_detect = false;
  for (size_t t = 0; t < n_threads; ++t) {
    size_t syncs = 0;
    const ThreadTrace& thread = leader.threads[t];
    for (const auto& action : thread.actions) {
      switch (action.kind) {
        case ActionKind::kSyscall:
          if (sc::IsSyncRelevant(thread.RecordOf(action).no)) {
            ++syncs;
          }
          break;
        case ActionKind::kLockAcquire:
          ++s->locks;
          break;
        case ActionKind::kBarrier:
        case ActionKind::kDetect:
          s->has_barrier_or_detect = true;
          break;
        default:
          break;
      }
    }
    s->pub_base[t + 1] = s->pub_base[t] + syncs;
  }
  s->total_syncs = s->pub_base[n_threads];
}

// ---------------------------------------------------------------------------
// Event-driven scheduler (Engine::Run).
//
// The reference scheduler below (Engine::RunReference) is a round-based
// fixpoint: every progress step re-scans all variants x threads for parked
// sync points, so per-event cost grows with session width. This scheduler
// reproduces its semantics — the same rounds, the same batches, the same
// floating-point expressions in the same order, hence bit-identical
// SyncReports — while only ever touching the threads whose dependency
// actually changed:
//
//   * sys_parked_[t] counts variants parked at a syscall of thread t; when it
//     reaches n_variants the thread's sync point is checked once for
//     lockstep readiness instead of every round;
//   * followers waiting for an unpublished ring slot sit in a per-thread
//     waiter list and are woken by the publish that creates their slot;
//   * a leader blocked on a full ring records the slot it waits for and is
//     woken by the consume that frees it (leader_blocked_);
//   * barrier readiness is a counter comparison (parked + exited == threads)
//     updated at each park, not a per-round scan;
//   * followers whose next lock-order entry is runnable sit in a replay-ready
//     list maintained at lock parks and leader appends;
//   * live_ replaces the all_done() full sweep, and a detect counter replaces
//     the per-round detection scan.
//
// The round structure of the reference is preserved exactly: each iteration
// advances the threads unparked by the previous batch, then executes the
// highest-priority non-empty ready set (detection > strict/IO lockstep >
// publish+consume > barriers > locks) in the reference's scan order
// (ascending thread / variant-major). Ready entries are stable — a parked
// thread is only unparked by the op that consumes it — so sets carry over
// rounds unchanged, which is what makes the incremental indices equivalent
// to full re-scans.
//
// Storage is flattened into contiguous arenas sized from one pass over the
// leader trace (the leader bounds every publish/consume/order append):
// published slots are (record pointer, avail time) pairs in one array indexed
// by pub_base_[t] + k, consume times one double array, and the §5.3 gap
// metric is resolved incrementally by merging the (monotone) publish and
// consume time streams at event time instead of a post-run binary-search
// pass. After the reserve pre-pass the steady state allocates nothing.
class EventScheduler {
 public:
  // All vector state lives in the caller-provided EventBuffers: a warm
  // workspace hands in capacity-warm arenas (reset in place by Execute), a
  // cold run hands in a stack-local instance. The scheduler object itself is
  // still per-run; reference members keep every method body identical to the
  // owning-vector version.
  EventScheduler(const EngineConfig& config, const std::vector<VariantTrace>& variants,
                 const LeaderSummary& leader, detail::EventBuffers& b)
      : config_(config),
        cm_(config.cost),
        variants_(variants),
        leader_(leader),
        V_(variants.size()),
        T_(variants[0].threads.size()),
        selective_(config.mode == LockstepMode::kSelective),
        th_(b.th),
        pub_base_(b.pub_base),
        pub_rec_(b.pub_rec),
        pub_avail_(b.pub_avail),
        pub_consumed_(b.pub_consumed),
        cons_time_(b.cons_time),
        cons_count_(b.cons_count),
        gap_(b.gap),
        sys_parked_(b.sys_parked),
        barrier_parked_(b.barrier_parked),
        done_count_(b.done_count),
        waiters_(b.waiters),
        waiters_count_(b.waiters_count),
        leader_blocked_(b.leader_blocked),
        order_list_(b.order_list),
        order_cursor_(b.order_cursor),
        last_acquire_(b.last_acquire),
        lockstep_ready_(b.lockstep_ready),
        publish_ready_(b.publish_ready),
        consume_ready_(b.consume_ready),
        barrier_ready_(b.barrier_ready),
        in_lockstep_(b.in_lockstep),
        in_publish_(b.in_publish),
        in_consume_(b.in_consume),
        in_barrier_(b.in_barrier),
        replay_runnable_(b.replay_runnable),
        advance_q_(b.advance_q),
        batch_t_(b.batch_t),
        batch_p_(b.batch_p),
        batch_vt_(b.batch_vt),
        batch_v_(b.batch_v) {}

  // Donates a capacity-warm vector for report_.variant_finish_time so the
  // report's only vector reuses recycled capacity (values are assigned
  // fresh). TakeFinishBuffer() retrieves it on an eager-path bail so the
  // follow-up aligned run can be reseeded.
  void SeedFinish(std::vector<double> spare) {
    report_.variant_finish_time = std::move(spare);
  }
  std::vector<double> TakeFinishBuffer() {
    return std::move(report_.variant_finish_time);
  }

  StatusOr<SyncReport> Execute();

 private:
  // Queue entries carry (v, t) packed into one word — the hot loops never
  // divide by T_ to recover coordinates. Engine::Run rejects sessions wider
  // than kMaxSessionWidth, so the packing cannot overflow here.
  static uint32_t PackVt(size_t v, size_t t) {
    return static_cast<uint32_t>((v << 16) | t);
  }

  const ThreadAction& Act(size_t v, size_t t) const {
    return variants_[v].threads[t].actions[th_[v * T_ + t].cursor];
  }
  // The syscall record / detector of the action (v, t) is parked at.
  const sc::SyscallRecord& Rec(size_t v, size_t t) const {
    return variants_[v].threads[t].RecordOf(Act(v, t));
  }
  const std::string& Detector(size_t v, size_t t) const {
    return variants_[v].threads[t].DetectorOf(Act(v, t));
  }

  static void AddReady(std::vector<uint32_t>& set, std::vector<char>& flags, size_t idx,
                       uint32_t entry) {
    if (!flags[idx]) {
      flags[idx] = 1;
      set.push_back(entry);
    }
  }

  void MarkReplayRunnable(size_t v) {
    if (!replay_runnable_[v]) {
      replay_runnable_[v] = 1;
      ++replay_runnable_count_;
    }
  }

  // Advances local (non-blocking) actions of one thread until it parks.
  // Identical to the reference's advance_local, on flattened state.
  void AdvanceLocal(size_t v, size_t t, size_t vt) {
    EvThread& ts = th_[vt];
    const ThreadTrace& thread = variants_[v].threads[t];
    const auto& actions = thread.actions;
    const double vscale = variants_[v].compute_scale;
    while (ts.cursor < actions.size()) {
      const ThreadAction& a = actions[ts.cursor];
      switch (a.kind) {
        case ActionKind::kCompute:
          ts.clock += a.cost * vscale * compute_factor_;
          ++ts.cursor;
          continue;
        case ActionKind::kSyscall:
          if (!sc::IsSyncRelevant(thread.RecordOf(a).no)) {
            // Sanitizer memory-management syscall: executed locally, never
            // compared (§3.3 class 2).
            ts.clock += cm_.kernel_syscall + cm_.trap_hook;
            ++report_.ignored_syscalls;
            ++ts.cursor;
            continue;
          }
          ts.park = Park::kSyscall;
          return;
        case ActionKind::kLockAcquire:
          ts.park = Park::kLock;
          return;
        case ActionKind::kLockRelease:
          ts.clock += cm_.lock_primitive;
          ++ts.cursor;
          continue;
        case ActionKind::kBarrier:
          ts.park = Park::kBarrier;
          return;
        case ActionKind::kDetect:
          ts.park = Park::kDetect;
          return;
        case ActionKind::kExit:
          ts.park = Park::kDone;
          return;
      }
    }
    ts.park = Park::kDone;
  }

  // A thread just parked: update the readiness indices its park affects.
  void HandlePark(size_t v, size_t t, size_t vt) {
    EvThread& ts = th_[vt];
    switch (ts.park) {
      case Park::kSyscall:
        ++sys_parked_[t];
        if (selective_) {
          if (v == 0) {
            const sc::SyscallRecord& rec = Rec(0, t);
            if (!sc::IsIoWriteRelated(rec.no)) {
              // Ring back-pressure: publishing entry k reuses the slot of
              // entry k - capacity; readiness needs that slot fetched by
              // every follower.
              const size_t k = ts.stream_pos;
              if (k < config_.ring_capacity ||
                  pub_consumed_[pub_base_[t] + (k - config_.ring_capacity)] ==
                      static_cast<uint32_t>(V_ - 1)) {
                AddReady(publish_ready_, in_publish_, t, static_cast<uint32_t>(t));
              } else {
                leader_blocked_[t] = k - config_.ring_capacity;
              }
            }
          } else {
            // th_[t] is the leader's thread t; its stream_pos is the number
            // of slots published on t (every completed leader sync op —
            // lockstep or ring — pushes exactly one).
            if (ts.stream_pos < th_[t].stream_pos) {
              AddReady(consume_ready_, in_consume_, vt, PackVt(v, t));
            } else {
              waiters_[t * (V_ - 1) + waiters_count_[t]++] = static_cast<uint32_t>(v);
            }
          }
        }
        if (sys_parked_[t] == V_) {
          MaybeLockstepReady(t);
        }
        break;
      case Park::kLock:
        if (v == 0) {
          ++leader_lock_count_;
        } else if (order_cursor_[v] < order_list_.size() &&
                   order_list_[order_cursor_[v]].thread == t) {
          MarkReplayRunnable(v);
        }
        break;
      case Park::kBarrier:
        ++barrier_parked_[v];
        CheckBarrierReady(v);
        break;
      case Park::kDetect:
        ++detect_count_;
        break;
      case Park::kDone:
        ++done_count_[v];
        --live_;
        CheckBarrierReady(v);
        break;
      case Park::kNone:
        break;  // unreachable: AdvanceLocal always parks or finishes
    }
  }

  // All variants' thread t are parked at a syscall: a sync point executes
  // when the stream positions agree and the leader's record takes the
  // lockstep path (always in strict mode, IO-write-related in selective).
  void MaybeLockstepReady(size_t t) {
    const size_t k = th_[t].stream_pos;
    for (size_t v = 1; v < V_; ++v) {
      if (th_[v * T_ + t].stream_pos != k) {
        return;  // a lagging follower still has ring slots to consume
      }
    }
    if (selective_ && !sc::IsIoWriteRelated(Rec(0, t).no)) {
      return;  // handled by the ring-buffer publish path
    }
    AddReady(lockstep_ready_, in_lockstep_, t, static_cast<uint32_t>(t));
  }

  void CheckBarrierReady(size_t v) {
    // Release (or flag as malformed) once every live thread of the variant
    // is parked at the barrier.
    if (barrier_parked_[v] > 0 && barrier_parked_[v] + done_count_[v] == T_) {
      AddReady(barrier_ready_, in_barrier_, v, static_cast<uint32_t>(v));
    }
  }

  void UnparkSyscall(size_t vt, size_t t, uint32_t entry) {
    th_[vt].park = Park::kNone;
    --sys_parked_[t];
    advance_q_.push_back(entry);
  }

  // Records follower v fetching slot (t, k) at `when`; frees the ring slot
  // and wakes a leader blocked on it.
  void AppendConsume(size_t v, size_t t, size_t k, double when) {
    const size_t f = v - 1;
    gap_.OnConsume(f, t, when);
    cons_time_[f * S_ + pub_base_[t] + k] = when;
    ++cons_count_[f * T_ + t];
    if (++pub_consumed_[pub_base_[t] + k] == static_cast<uint32_t>(V_ - 1) &&
        leader_blocked_[t] == k) {
      leader_blocked_[t] = SIZE_MAX;
      AddReady(publish_ready_, in_publish_, t, static_cast<uint32_t>(t));
    }
  }

  // --- Sync-point execution (same expressions as the reference) ------------

  // Strict barrier / IO-write lockstep syscall on thread t. Returns true if
  // a divergence was recorded (caller aborts).
  bool ExecuteLockstep(size_t t) {
    const size_t k = th_[t].stream_pos;
    const sc::SyscallRecord& leader_rec = Rec(0, t);
    // Argument agreement check (sequence + arguments, §2.2).
    for (size_t v = 1; v < V_; ++v) {
      const sc::SyscallRecord& rec = Rec(v, t);
      if (!rec.SameRequest(leader_rec)) {
        report_.divergence =
            Divergence{v, t, k, sc::RecordToString(leader_rec), sc::RecordToString(rec)};
        return true;
      }
    }
    double max_arrival = 0.0;
    for (size_t v = 0; v < V_; ++v) {
      max_arrival = std::max(max_arrival, th_[v * T_ + t].clock + cm_.trap_hook);
    }
    const double exec = max_arrival + cm_.sync_slot;
    const double done_time = exec + cm_.kernel_syscall;
    if (selective_) {
      // Keep the published stream consistent for later selective consumers.
      const size_t slot = pub_base_[t] + k;
      pub_rec_[slot] = &leader_rec;
      pub_avail_[slot] = done_time;
      for (size_t f = 0; f + 1 < V_; ++f) {
        gap_.OnPublish(f, t, k, done_time);
      }
    }
    for (size_t v = 0; v < V_; ++v) {
      EvThread& ts = th_[v * T_ + t];
      const double arrival = ts.clock + cm_.trap_hook;
      const bool slept = arrival + 1e-12 < max_arrival;
      ts.clock = done_time + (v == 0 ? cm_.sync_slot : cm_.result_fetch) +
                 (slept ? cm_.WakeupCost() : 0.0);
      ++ts.stream_pos;
      ++ts.cursor;
      UnparkSyscall(v * T_ + t, t, PackVt(v, t));
      if (v > 0 && selective_) {
        // A follower frees the slot when it has actually fetched the result
        // (done_time + result_fetch + wakeup) — the gap metric and ring free
        // times depend on the real per-follower clock.
        AppendConsume(v, t, k, ts.clock);
      }
    }
    if (selective_ && V_ > 1) {
      waiters_count_[t] = 0;  // every registered waiter was a participant
    }
    ++report_.synced_syscalls;
    ++report_.lockstep_barriers;
    return false;
  }

  // Leader publish into the ring buffer (selective mode, non-IO record).
  void ExecutePublish(size_t t) {
    EvThread& ts = th_[t];
    const size_t k = ts.stream_pos;
    const sc::SyscallRecord& rec = Rec(0, t);
    double free_time = 0.0;
    if (k >= config_.ring_capacity) {
      // Readiness guaranteed the reused slot was fetched by every follower.
      const size_t idx = k - config_.ring_capacity;
      for (size_t f = 0; f + 1 < V_; ++f) {
        free_time = std::max(free_time, cons_time_[f * S_ + pub_base_[t] + idx]);
      }
    }
    const double arrival = ts.clock + cm_.trap_hook;
    const bool stalled = arrival + 1e-12 < free_time;
    const double start = std::max(arrival, free_time) + cm_.sync_slot;
    const double avail = start + cm_.kernel_syscall;
    ts.clock = avail + cm_.sync_slot + (stalled ? cm_.WakeupCost() : 0.0);
    const size_t slot = pub_base_[t] + k;
    pub_rec_[slot] = &rec;
    pub_avail_[slot] = avail;
    for (size_t f = 0; f + 1 < V_; ++f) {
      gap_.OnPublish(f, t, k, avail);
    }
    ++ts.stream_pos;
    ++ts.cursor;
    UnparkSyscall(t, t, PackVt(0, t));
    ++report_.synced_syscalls;
    if (V_ > 1) {
      // Wake the followers that parked waiting for exactly this slot.
      for (size_t i = 0; i < waiters_count_[t]; ++i) {
        const size_t wv = waiters_[t * (V_ - 1) + i];
        AddReady(consume_ready_, in_consume_, wv * T_ + t, PackVt(wv, t));
      }
      waiters_count_[t] = 0;
    }
  }

  // Follower consume of its next published slot. Returns true on divergence.
  bool ExecuteConsume(size_t v, size_t t) {
    const size_t vt = v * T_ + t;
    EvThread& ts = th_[vt];
    const size_t k = ts.stream_pos;
    const sc::SyscallRecord& rec = Rec(v, t);
    // Note: a slot only exists here when the leader's k-th record went
    // through the ring (non-IO). If the follower's record is IO-related
    // the comparison below reports the sequence divergence.
    const size_t slot = pub_base_[t] + k;
    if (!rec.SameRequest(*pub_rec_[slot])) {
      report_.divergence =
          Divergence{v, t, k, sc::RecordToString(*pub_rec_[slot]), sc::RecordToString(rec)};
      return true;
    }
    const double arrival = ts.clock + cm_.trap_hook;
    const bool slept = arrival + 1e-12 < pub_avail_[slot];
    ts.clock = std::max(arrival, pub_avail_[slot]) + cm_.result_fetch +
               (slept ? cm_.WakeupCost() : 0.0);
    AppendConsume(v, t, k, ts.clock);
    ++ts.stream_pos;
    ++ts.cursor;
    UnparkSyscall(vt, t, PackVt(v, t));
    return false;
  }

  // Intra-variant barrier release (validity checked by the caller).
  void ExecuteBarrier(size_t v) {
    double release = 0.0;
    for (size_t t = 0; t < T_; ++t) {
      release = std::max(release, th_[v * T_ + t].clock);
    }
    release += cm_.lock_primitive;
    for (size_t t = 0; t < T_; ++t) {
      EvThread& ts = th_[v * T_ + t];
      const bool slept = ts.clock + 1e-12 < release - cm_.lock_primitive;
      ts.clock = release + (slept ? cm_.WakeupCost() : 0.0);
      ++ts.cursor;
      ts.park = Park::kNone;
      advance_q_.push_back(PackVt(v, t));
    }
    barrier_parked_[v] = 0;
  }

  // Leader: the parked acquisition with the smallest clock joins the total
  // order (weak determinism, §3.3/§4.2).
  void ExecuteLeaderLock() {
    size_t best_t = SIZE_MAX;
    for (size_t t = 0; t < T_; ++t) {
      if (th_[t].park == Park::kLock &&
          (best_t == SIZE_MAX || th_[t].clock < th_[best_t].clock)) {
        best_t = t;
      }
    }
    EvThread& ts = th_[best_t];
    ts.clock += cm_.lock_primitive + cm_.synccall;
    order_list_.push_back({best_t, ts.clock});
    last_acquire_[0] = ts.clock;
    ++ts.cursor;
    ts.park = Park::kNone;
    --leader_lock_count_;
    advance_q_.push_back(PackVt(0, best_t));
    ++report_.lock_acquisitions;
    const size_t new_idx = order_list_.size() - 1;
    for (size_t v = 1; v < V_; ++v) {
      if (order_cursor_[v] == new_idx && th_[v * T_ + best_t].park == Park::kLock) {
        MarkReplayRunnable(v);
      }
    }
  }

  // Follower: replay the next entry of the leader's lock order.
  void ExecuteReplay(size_t v) {
    const OrderEntry& entry = order_list_[order_cursor_[v]];
    EvThread& ts = th_[v * T_ + entry.thread];
    const double start = std::max({ts.clock, last_acquire_[v], entry.leader_time});
    const bool slept = ts.clock + 1e-12 < start;
    ts.clock = start + cm_.lock_primitive + cm_.synccall + (slept ? cm_.WakeupCost() : 0.0);
    last_acquire_[v] = ts.clock;
    ++order_cursor_[v];
    ++ts.cursor;
    ts.park = Park::kNone;
    advance_q_.push_back(PackVt(v, entry.thread));
    if (order_cursor_[v] < order_list_.size() &&
        th_[v * T_ + order_list_[order_cursor_[v]].thread].park == Park::kLock) {
      MarkReplayRunnable(v);
    }
  }

  SyncReport FinishIncident() {
    report_.aborted_all = true;
    for (size_t v = 0; v < V_; ++v) {
      double worst = 0.0;
      for (size_t t = 0; t < T_; ++t) {
        worst = std::max(worst, th_[v * T_ + t].clock);
      }
      report_.variant_finish_time[v] = worst;
      report_.total_time = std::max(report_.total_time, worst);
    }
    return std::move(report_);
  }

  const EngineConfig& config_;
  const CostModel& cm_;
  const std::vector<VariantTrace>& variants_;
  const LeaderSummary& leader_;
  const size_t V_;  // n_variants
  const size_t T_;  // threads per variant
  const bool selective_;
  double compute_factor_ = 1.0;

  SyncReport report_;
  std::vector<EvThread>& th_;  // flattened (v, t) -> v * T_ + t

  // Published-stream arenas (selective mode), slot (t, k) at pub_base_[t]+k.
  std::vector<size_t>& pub_base_;  // T_ + 1 prefix sums of leader sync counts
  size_t S_ = 0;                   // total leader sync-relevant syscalls
  std::vector<const sc::SyscallRecord*>& pub_rec_;
  std::vector<double>& pub_avail_;
  std::vector<uint32_t>& pub_consumed_;
  // Consume times, follower f = v - 1: (t, k) at f * S_ + pub_base_[t] + k.
  std::vector<double>& cons_time_;
  std::vector<size_t>& cons_count_;  // per (f, t): entries recorded
  GapMerge& gap_;

  // Readiness indices.
  std::vector<uint32_t>& sys_parked_;      // per t: variants parked at a syscall
  std::vector<uint32_t>& barrier_parked_;  // per v: threads parked at a barrier
  std::vector<uint32_t>& done_count_;      // per v: threads exited
  std::vector<uint32_t>& waiters_;         // per t: followers awaiting the next slot
  std::vector<uint32_t>& waiters_count_;
  std::vector<size_t>& leader_blocked_;  // per t: ring slot awaited, or SIZE_MAX
  size_t live_ = 0;
  size_t detect_count_ = 0;
  size_t leader_lock_count_ = 0;

  // Lock total order.
  std::vector<OrderEntry>& order_list_;
  std::vector<size_t>& order_cursor_;   // per v
  std::vector<double>& last_acquire_;   // per v

  // Ready sets (entries are stable until executed) + membership flags.
  std::vector<uint32_t>&lockstep_ready_, &publish_ready_, &consume_ready_;
  std::vector<uint32_t>& barrier_ready_;
  std::vector<char>&in_lockstep_, &in_publish_, &in_consume_, &in_barrier_;
  // Leader-order prefetch chain (replaces the replay ready set + batch
  // snapshot): per-variant runnable flags scanned in ascending v, which is
  // exactly the order the old sorted batch executed in.
  std::vector<char>& replay_runnable_;
  size_t replay_runnable_count_ = 0;
  std::vector<uint32_t>& advance_q_;
  // Batch scratch, reused every round.
  std::vector<uint32_t>&batch_t_, &batch_p_, &batch_vt_;
  std::vector<uint32_t>& batch_v_;
};

StatusOr<SyncReport> EventScheduler::Execute() {
  // Contention width: a shard engine runs a subset of a session's variants,
  // but the whole session shares the host's cache and cores.
  const size_t width = std::max(config_.contention_variants, V_);
  const double llc = cm_.LlcMultiplier(width, config_.cache_sensitivity);
  const double serial = cm_.SerializationMultiplier(width, std::max<size_t>(T_, 1));
  compute_factor_ = llc * serial;

  report_.variant_finish_time.assign(V_, 0.0);

  th_.assign(V_ * T_, EvThread{});
  for (size_t v = 0; v < V_; ++v) {
    // Pre-main sanitizer startup: costs time, produces ignored syscalls.
    const double startup =
        static_cast<double>(variants_[v].pre_main.size()) * cm_.kernel_syscall;
    report_.ignored_syscalls += variants_[v].pre_main.size();
    for (size_t t = 0; t < T_; ++t) {
      th_[v * T_ + t].clock = startup;
    }
  }

  // Reserve pre-pass (shared LeaderSummary): the leader's trace bounds every
  // publish/consume/order append (followers replay its sync stream and lock
  // order), so its shape sizes every arena — the steady state allocates
  // nothing.
  pub_base_ = leader_.pub_base;
  S_ = leader_.total_syncs;

  if (selective_) {
    pub_rec_.assign(S_, nullptr);
    pub_avail_.assign(S_, 0.0);
    pub_consumed_.assign(S_, 0);
    leader_blocked_.assign(T_, SIZE_MAX);
    if (V_ > 1) {
      cons_time_.assign((V_ - 1) * S_, 0.0);
      cons_count_.assign((V_ - 1) * T_, 0);
      gap_.Init(T_, S_, V_ - 1, pub_base_.data(), pub_avail_.data(), cons_time_.data(),
                cons_count_.data());
      waiters_.assign(T_ * (V_ - 1), 0);
      waiters_count_.assign(T_, 0);
    }
  }

  sys_parked_.assign(T_, 0);
  barrier_parked_.assign(V_, 0);
  done_count_.assign(V_, 0);
  live_ = V_ * T_;
  // Reused buffers may carry a previous run's contents — clear before
  // reserving (a fresh-buffer run clears empties, a no-op).
  order_list_.clear();
  order_list_.reserve(leader_.locks);
  order_cursor_.assign(V_, 0);
  last_acquire_.assign(V_, 0.0);

  lockstep_ready_.clear();
  publish_ready_.clear();
  consume_ready_.clear();
  barrier_ready_.clear();
  lockstep_ready_.reserve(T_);
  publish_ready_.reserve(T_);
  consume_ready_.reserve(V_ * T_);
  barrier_ready_.reserve(V_);
  in_lockstep_.assign(T_, 0);
  in_publish_.assign(T_, 0);
  in_consume_.assign(V_ * T_, 0);
  in_barrier_.assign(V_, 0);
  replay_runnable_.assign(V_, 0);
  replay_runnable_count_ = 0;
  advance_q_.clear();
  advance_q_.reserve(V_ * T_);
  batch_t_.reserve(T_);
  batch_p_.reserve(T_);
  batch_vt_.reserve(V_ * T_);
  batch_v_.reserve(V_);

  for (size_t v = 0; v < V_; ++v) {
    for (size_t t = 0; t < T_; ++t) {
      advance_q_.push_back(PackVt(v, t));
    }
  }

  for (;;) {
    // Advance the threads unparked by the previous batch (initially all);
    // each park feeds the readiness indices.
    for (size_t i = 0; i < advance_q_.size(); ++i) {
      const uint32_t e = advance_q_[i];
      const size_t v = e >> 16;
      const size_t t = e & 0xffff;
      const size_t vt = v * T_ + t;
      AdvanceLocal(v, t, vt);
      HandlePark(v, t, vt);
    }
    advance_q_.clear();
    if (live_ == 0) {
      break;
    }

    // --- Detection has top priority: the variant's sanitizer aborted. ------
    if (detect_count_ > 0) {
      for (size_t v = 0; v < V_; ++v) {
        for (size_t t = 0; t < T_; ++t) {
          if (th_[v * T_ + t].park == Park::kDetect) {
            report_.detection = DetectionReport{v, t, Detector(v, t)};
            return FinishIncident();
          }
        }
      }
    }

    // --- Strict barriers / IO-write lockstep syscalls -----------------------
    if (!lockstep_ready_.empty()) {
      batch_t_.assign(lockstep_ready_.begin(), lockstep_ready_.end());
      lockstep_ready_.clear();
      if (batch_t_.size() > 1) {
        std::sort(batch_t_.begin(), batch_t_.end());
      }
      for (const uint32_t t : batch_t_) {
        in_lockstep_[t] = 0;
        if (ExecuteLockstep(t)) {
          return FinishIncident();
        }
      }
      continue;
    }

    // --- Leader publish (ring buffer) / follower consume --------------------
    if (selective_ && (!publish_ready_.empty() || !consume_ready_.empty())) {
      batch_p_.assign(publish_ready_.begin(), publish_ready_.end());
      publish_ready_.clear();
      if (batch_p_.size() > 1) {
        std::sort(batch_p_.begin(), batch_p_.end());
      }
      for (const uint32_t t : batch_p_) {
        in_publish_[t] = 0;
        ExecutePublish(t);  // may wake consumers into this round's batch
      }
      batch_vt_.assign(consume_ready_.begin(), consume_ready_.end());
      consume_ready_.clear();
      if (batch_vt_.size() > 1) {
        std::sort(batch_vt_.begin(), batch_vt_.end());  // packed order == (v, t) order
      }
      for (const uint32_t e : batch_vt_) {
        const size_t cv = e >> 16;
        const size_t ct = e & 0xffff;
        in_consume_[cv * T_ + ct] = 0;
        if (ExecuteConsume(cv, ct)) {
          return FinishIncident();
        }
      }
      continue;
    }

    // --- Intra-variant barriers --------------------------------------------
    if (!barrier_ready_.empty()) {
      batch_v_.assign(barrier_ready_.begin(), barrier_ready_.end());
      barrier_ready_.clear();
      if (batch_v_.size() > 1) {
        std::sort(batch_v_.begin(), batch_v_.end());
      }
      for (const uint32_t v : batch_v_) {
        in_barrier_[v] = 0;
        // Every live thread of the variant is parked at the barrier. All
        // threads participate in every barrier (workload invariant), so a
        // thread that already exited skipped this one: malformed trace, the
        // same verdict RunBaseline reaches.
        if (barrier_parked_[v] < T_) {
          return InvalidArgument(
              "malformed trace: variant " + std::to_string(v) + ": " +
              std::to_string(T_ - barrier_parked_[v]) +
              " thread(s) exited before a barrier the others are waiting at");
        }
        ExecuteBarrier(v);
      }
      continue;
    }

    // --- Lock acquisitions (weak determinism, §3.3/§4.2) --------------------
    if (leader_lock_count_ > 0 || replay_runnable_count_ > 0) {
      if (leader_lock_count_ > 0) {
        ExecuteLeaderLock();  // may flag same-round follower replays
      }
      if (replay_runnable_count_ > 0) {
        // Prefetch-chain scan in ascending v — the order the old sorted
        // batch executed in. A replay that re-arms itself inside
        // ExecuteReplay sets the flag at an index this scan has already
        // passed, so it lands next round, exactly like the old
        // snapshot-then-execute batch.
        for (size_t v = 1; v < V_; ++v) {
          if (replay_runnable_[v]) {
            replay_runnable_[v] = 0;
            --replay_runnable_count_;
            ExecuteReplay(v);
          }
        }
      }
      continue;
    }

    // --- No progress: either a sequence-length divergence or an engine bug.
    for (size_t t = 0; t < T_; ++t) {
      // Some variant finished thread t while another still expects a sync
      // point there (missing arrival == divergence).
      bool someone_waiting = false;
      size_t waiting_variant = 0;
      bool someone_done = false;
      for (size_t v = 0; v < V_; ++v) {
        if (th_[v * T_ + t].park == Park::kSyscall) {
          someone_waiting = true;
          waiting_variant = v;
        }
        if (th_[v * T_ + t].park == Park::kDone) {
          someone_done = true;
        }
      }
      if (someone_waiting && someone_done) {
        report_.divergence =
            Divergence{waiting_variant, t, th_[waiting_variant * T_ + t].stream_pos,
                       "<exited>", sc::RecordToString(Rec(waiting_variant, t))};
        return FinishIncident();
      }
    }
    return Internal("engine deadlock: no runnable variant thread");
  }

  // Post-exit sanitizer reporting: ignored, costs time.
  for (size_t v = 0; v < V_; ++v) {
    const double extra =
        static_cast<double>(variants_[v].post_exit.size()) * cm_.kernel_syscall;
    report_.ignored_syscalls += variants_[v].post_exit.size();
    double worst = 0.0;
    for (size_t t = 0; t < T_; ++t) {
      worst = std::max(worst, th_[v * T_ + t].clock);
    }
    report_.variant_finish_time[v] = worst + extra;
    report_.total_time = std::max(report_.total_time, report_.variant_finish_time[v]);
  }

  // Attack-window metric (§5.3): per-slot minima were resolved by the event-
  // time merge; drain the pending tails (every recorded consume of a pending
  // slot is <= its W by construction) and reduce in the reference's (t, k)
  // order so the floating-point sum is bit-identical.
  uint64_t gap_samples = 0;
  double gap_sum = 0.0;
  if (selective_ && V_ > 1) {
    gap_.Flush(V_ - 1);
    for (size_t t = 0; t < T_; ++t) {
      const size_t published = th_[t].stream_pos;  // leader's slot count
      for (size_t k = 0; k < published; ++k) {
        const uint64_t gap = static_cast<uint64_t>(k + 1 - gap_.min_consumed[pub_base_[t] + k]);
        gap_sum += static_cast<double>(gap);
        ++gap_samples;
        report_.max_syscall_gap = std::max(report_.max_syscall_gap, gap);
      }
    }
  }

  report_.completed = true;
  report_.avg_syscall_gap = gap_samples > 0 ? gap_sum / static_cast<double>(gap_samples) : 0.0;
  return std::move(report_);
}


// ---------------------------------------------------------------------------
// Eager fast path (Engine::Run, lock/barrier/detect-free traces).
//
// When the leader trace has no lock acquisitions, barriers, or sanitizer
// checks — the dominant SPEC-style session shape the async pools, sharding,
// and plan cache funnel into the engine — the variants of each thread index
// form one independent producer/consumer stream: nothing couples distinct
// thread indices, and every sync point's virtual times depend only on its
// participants' own dependency chains, not on the round in which the
// round-aligned scheduler happens to execute it. A *completed* run therefore
// has exactly one possible SyncReport, and this scheduler computes it with
// chained tight loops (the leader publishes until the ring fills, each
// follower drains every available slot in one sweep) instead of per-round
// batch machinery.
//
// Anything that would make processing order observable bails to the aligned
// EventScheduler, which reproduces the reference bit for bit: a follower
// parking at a lock/barrier/detect (injected attack behavior), any record
// mismatch (the divergence report snapshots mid-round clocks), or a stall
// (sequence-length divergence / malformed trace). Bailing costs one wasted
// partial pass and is rare: benign sessions never bail.
class EagerScheduler {
 public:
  // Arenas live in the caller-provided EagerBuffers (warm workspace or a
  // stack-local for cold runs); the scheduler object is per-run.
  EagerScheduler(const EngineConfig& config, const std::vector<VariantTrace>& variants,
                 const LeaderSummary& leader, detail::EagerBuffers& b)
      : config_(config),
        cm_(config.cost),
        variants_(variants),
        leader_(leader),
        b_(b),
        V_(variants.size()),
        T_(variants[0].threads.size()),
        selective_(config.mode == LockstepMode::kSelective) {}

  // Same finish-buffer donation protocol as EventScheduler; on a bail the
  // caller moves the buffer over to the aligned scheduler.
  void SeedFinish(std::vector<double> spare) {
    report_.variant_finish_time = std::move(spare);
  }
  std::vector<double> TakeFinishBuffer() {
    return std::move(report_.variant_finish_time);
  }

  // Returns the completed report, or nullopt if the run must be replayed on
  // the aligned scheduler.
  std::optional<SyncReport> Execute();

 private:
  // Walks local actions until the next sync-relevant syscall or exit.
  // Returns false on a lock/barrier/detect park: order becomes observable,
  // the caller must bail.
  bool Advance(Walk& w, double vscale) {
    while (w.cur != w.end) {
      const ThreadAction& a = *w.cur;
      switch (a.kind) {
        case ActionKind::kCompute:
          w.clock += a.cost * vscale * compute_factor_;
          ++w.cur;
          continue;
        case ActionKind::kSyscall:
          if (!sc::IsSyncRelevant(w.thread->RecordOf(a).no)) {
            w.clock += cm_.kernel_syscall + cm_.trap_hook;
            ++report_.ignored_syscalls;
            ++w.cur;
            continue;
          }
          w.parked = true;
          return true;
        case ActionKind::kLockRelease:
          w.clock += cm_.lock_primitive;
          ++w.cur;
          continue;
        case ActionKind::kExit:
          w.parked = false;
          w.cur = w.end;
          return true;
        default:
          return false;  // kLockAcquire / kBarrier / kDetect: bail
      }
    }
    w.parked = false;
    return true;
  }

  bool Done(const Walk& w) const { return !w.parked && w.cur == w.end; }

  const EngineConfig& config_;
  const CostModel& cm_;
  const std::vector<VariantTrace>& variants_;
  const LeaderSummary& leader_;
  detail::EagerBuffers& b_;
  const size_t V_;
  const size_t T_;
  const bool selective_;
  double compute_factor_ = 1.0;
  SyncReport report_;
};

std::optional<SyncReport> EagerScheduler::Execute() {
  const size_t width = std::max(config_.contention_variants, V_);
  const double llc = cm_.LlcMultiplier(width, config_.cache_sensitivity);
  const double serial = cm_.SerializationMultiplier(width, std::max<size_t>(T_, 1));
  compute_factor_ = llc * serial;

  report_.variant_finish_time.assign(V_, 0.0);

  std::vector<double>& startup = b_.startup;
  std::vector<double>& vscale = b_.vscale;
  startup.assign(V_, 0.0);
  vscale.assign(V_, 1.0);
  for (size_t v = 0; v < V_; ++v) {
    startup[v] = static_cast<double>(variants_[v].pre_main.size()) * cm_.kernel_syscall;
    report_.ignored_syscalls += variants_[v].pre_main.size();
    vscale[v] = variants_[v].compute_scale;
  }

  const size_t S = leader_.total_syncs;
  const size_t* pub_base = leader_.pub_base.data();
  const size_t followers = V_ - 1;

  // Arenas (selective): published slots + follower consume times, sized by
  // the leader pre-pass. cons_time is only read below indices already
  // written, so it needs no zeroing — stale contents from a previous warm
  // run are never observed.
  std::vector<const sc::SyscallRecord*>& pub_rec = b_.pub_rec;
  std::vector<double>& pub_avail = b_.pub_avail;
  std::vector<uint32_t>& pub_consumed = b_.pub_consumed;
  std::vector<double>& cons_time = b_.cons_time;
  std::vector<size_t>& cons_count = b_.cons_count;
  GapMerge& gap = b_.gap;
  if (selective_) {
    pub_rec.resize(S);
    pub_avail.resize(S);
    pub_consumed.assign(S, 0);
    if (followers > 0) {
      cons_time.resize(followers * S);
      cons_count.assign(followers * T_, 0);
      gap.Init(T_, S, followers, pub_base, pub_avail.data(), cons_time.data(),
               cons_count.data());
    }
  }

  std::vector<Walk>& walks = b_.walks;
  walks.assign(V_, Walk{});
  std::vector<double>& finish = b_.finish;
  finish.assign(V_, 0.0);

  for (size_t t = 0; t < T_; ++t) {
    for (size_t v = 0; v < V_; ++v) {
      Walk& w = walks[v];
      const ThreadTrace& thread = variants_[v].threads[t];
      w.cur = thread.actions.data();
      w.end = thread.actions.data() + thread.actions.size();
      w.thread = &thread;
      w.clock = startup[v];
      w.pos = 0;
      w.parked = false;
      if (!Advance(w, vscale[v])) {
        return std::nullopt;
      }
    }
    Walk& L = walks[0];
    const size_t base = pub_base[t];
    size_t pub_count = 0;

    for (;;) {
      bool progressed = false;

      // Leader chain: publish ring entries until the ring fills or an
      // IO/strict lockstep point needs every variant; run each lockstep as
      // soon as all variants arrive.
      while (L.parked) {
        const sc::SyscallRecord& rec = L.thread->RecordOf(*L.cur);
        if (!selective_ || sc::IsIoWriteRelated(rec.no)) {
          // Lockstep: every variant must be parked at this position.
          bool all_at = true;
          for (size_t v = 1; v < V_; ++v) {
            if (!walks[v].parked || walks[v].pos != L.pos) {
              all_at = false;
              break;
            }
          }
          if (!all_at) {
            break;  // followers still have slots to drain
          }
          for (size_t v = 1; v < V_; ++v) {
            if (!walks[v].thread->RecordOf(*walks[v].cur).SameRequest(rec)) {
              return std::nullopt;  // divergence: report needs round clocks
            }
          }
          double max_arrival = 0.0;
          for (size_t v = 0; v < V_; ++v) {
            max_arrival = std::max(max_arrival, walks[v].clock + cm_.trap_hook);
          }
          const double exec = max_arrival + cm_.sync_slot;
          const double done_time = exec + cm_.kernel_syscall;
          if (selective_) {
            pub_rec[base + pub_count] = &rec;
            pub_avail[base + pub_count] = done_time;
            for (size_t f = 0; f < followers; ++f) {
              gap.OnPublish(f, t, pub_count, done_time);
            }
          }
          for (size_t v = 0; v < V_; ++v) {
            Walk& w = walks[v];
            const double arrival = w.clock + cm_.trap_hook;
            const bool slept = arrival + 1e-12 < max_arrival;
            w.clock = done_time + (v == 0 ? cm_.sync_slot : cm_.result_fetch) +
                      (slept ? cm_.WakeupCost() : 0.0);
            if (v > 0 && selective_) {
              const size_t f = v - 1;
              gap.OnConsume(f, t, w.clock);
              cons_time[f * S + base + w.pos] = w.clock;
              ++cons_count[f * T_ + t];
              ++pub_consumed[base + w.pos];
            }
            ++w.pos;
            ++w.cur;
            w.parked = false;
            if (!Advance(w, vscale[v])) {
              return std::nullopt;
            }
          }
          ++pub_count;
          ++report_.synced_syscalls;
          ++report_.lockstep_barriers;
          progressed = true;
          continue;
        }
        // Ring publish.
        double free_time = 0.0;
        if (pub_count >= config_.ring_capacity) {
          const size_t idx = pub_count - config_.ring_capacity;
          if (followers > 0 && pub_consumed[base + idx] != static_cast<uint32_t>(followers)) {
            break;  // the slowest follower must free the slot first
          }
          for (size_t f = 0; f < followers; ++f) {
            free_time = std::max(free_time, cons_time[f * S + base + idx]);
          }
        }
        const double arrival = L.clock + cm_.trap_hook;
        const bool stalled = arrival + 1e-12 < free_time;
        const double start = std::max(arrival, free_time) + cm_.sync_slot;
        const double avail = start + cm_.kernel_syscall;
        L.clock = avail + cm_.sync_slot + (stalled ? cm_.WakeupCost() : 0.0);
        pub_rec[base + pub_count] = &rec;
        pub_avail[base + pub_count] = avail;
        for (size_t f = 0; f < followers; ++f) {
          gap.OnPublish(f, t, pub_count, avail);
        }
        ++L.pos;
        ++pub_count;
        ++L.cur;
        L.parked = false;
        ++report_.synced_syscalls;
        if (!Advance(L, vscale[0])) {
          return std::nullopt;
        }
        progressed = true;
      }

      // Follower chains: drain every published slot that is already
      // available (selective mode only; strict followers move in lockstep).
      if (selective_) {
        for (size_t v = 1; v < V_; ++v) {
          Walk& w = walks[v];
          const size_t f = v - 1;
          while (w.parked && w.pos < pub_count) {
            const sc::SyscallRecord& rec = w.thread->RecordOf(*w.cur);
            if (!rec.SameRequest(*pub_rec[base + w.pos])) {
              return std::nullopt;  // divergence (or IO record meeting a ring slot)
            }
            const double avail = pub_avail[base + w.pos];
            const double arrival = w.clock + cm_.trap_hook;
            const bool slept = arrival + 1e-12 < avail;
            w.clock = std::max(arrival, avail) + cm_.result_fetch +
                      (slept ? cm_.WakeupCost() : 0.0);
            gap.OnConsume(f, t, w.clock);
            cons_time[f * S + base + w.pos] = w.clock;
            ++cons_count[f * T_ + t];
            ++pub_consumed[base + w.pos];
            ++w.pos;
            ++w.cur;
            w.parked = false;
            if (!Advance(w, vscale[v])) {
              return std::nullopt;
            }
            progressed = true;
          }
        }
      }

      if (!progressed) {
        bool all_done = Done(L);
        for (size_t v = 1; all_done && v < V_; ++v) {
          all_done = Done(walks[v]);
        }
        if (all_done) {
          break;
        }
        // Stall: some variant exited while another expects a sync point (or
        // the trace is malformed) — the aligned scheduler owns that verdict.
        return std::nullopt;
      }
    }

    for (size_t v = 0; v < V_; ++v) {
      finish[v] = std::max(finish[v], walks[v].clock);
    }
  }

  // Epilogue: identical expressions and reduction order to the reference.
  for (size_t v = 0; v < V_; ++v) {
    const double extra =
        static_cast<double>(variants_[v].post_exit.size()) * cm_.kernel_syscall;
    report_.ignored_syscalls += variants_[v].post_exit.size();
    double worst = T_ > 0 ? finish[v] : 0.0;
    report_.variant_finish_time[v] = worst + extra;
    report_.total_time = std::max(report_.total_time, report_.variant_finish_time[v]);
  }

  uint64_t gap_samples = 0;
  double gap_sum = 0.0;
  if (selective_ && V_ > 1) {
    gap.Flush(followers);
    for (size_t t = 0; t < T_; ++t) {
      const size_t published = pub_base[t + 1] - pub_base[t];
      for (size_t k = 0; k < published; ++k) {
        const uint64_t g = static_cast<uint64_t>(k + 1 - gap.min_consumed[pub_base[t] + k]);
        gap_sum += static_cast<double>(g);
        ++gap_samples;
        report_.max_syscall_gap = std::max(report_.max_syscall_gap, g);
      }
    }
  }

  report_.completed = true;
  report_.avg_syscall_gap = gap_samples > 0 ? gap_sum / static_cast<double>(gap_samples) : 0.0;
  return std::move(report_);
}

// Shared Run() body for the cold and warm paths: `ws` is either a caller's
// persistent workspace or a stack-local (cold allocation behavior identical
// to the pre-workspace code). The finish-buffer spare, if the caller
// recycled one, donates its capacity to the report's only vector.
StatusOr<SyncReport> RunScheduled(const EngineConfig& config,
                                  const std::vector<VariantTrace>& variants,
                                  EngineWorkspace::Impl& ws) {
  const size_t n_threads = variants[0].threads.size();
  SummarizeLeader(variants[0], &ws.leader);
  const LeaderSummary& leader = ws.leader;
  std::vector<double> spare = std::move(ws.finish_spare);
  ws.finish_spare.clear();
  if (leader.locks == 0 && !leader.has_barrier_or_detect && n_threads > 0) {
    // Hot path: independent per-thread streams, chained without round
    // machinery. Bails (rarely: injected attacks, malformed traces) to the
    // round-aligned scheduler, which owns every incident verdict.
    EagerScheduler eager(config, variants, leader, ws.eager);
    eager.SeedFinish(std::move(spare));
    if (auto report = eager.Execute()) {
      return std::move(*report);
    }
    spare = eager.TakeFinishBuffer();
  }
  EventScheduler scheduler(config, variants, leader, ws.event);
  scheduler.SeedFinish(std::move(spare));
  return scheduler.Execute();
}

StatusOr<double> RunBaselineOn(const CostModel& cm, const VariantTrace& trace,
                               detail::BaselineBuffers& b) {
  const size_t n_threads = trace.threads.size();
  const double serial = cm.SerializationMultiplier(1, n_threads);
  std::vector<double>& clock = b.clock;
  std::vector<size_t>& cursor = b.cursor;
  std::vector<char>& done = b.done;
  clock.assign(n_threads, 0.0);
  cursor.assign(n_threads, 0);
  done.assign(n_threads, 0);
  bool aborted = false;   // a sanitizer check fired: the whole process dies
  double abort_time = 0.0;  // the detecting thread's clock at the check
  std::vector<size_t>& at_barrier = b.at_barrier;  // reused round scratch
  at_barrier.clear();
  at_barrier.reserve(n_threads);

  // Advance all threads, meeting at barriers. Barriers appear in the same
  // order in every thread that participates (workload invariant).
  for (;;) {
    bool any_alive = false;
    at_barrier.clear();
    for (size_t t = 0; t < n_threads && !aborted; ++t) {
      if (done[t]) {
        continue;
      }
      any_alive = true;
      while (cursor[t] < trace.threads[t].actions.size()) {
        const ThreadAction& a = trace.threads[t].actions[cursor[t]];
        if (a.kind == ActionKind::kBarrier) {
          at_barrier.push_back(t);
          break;
        }
        switch (a.kind) {
          case ActionKind::kCompute:
            clock[t] += a.cost * trace.compute_scale * serial;
            break;
          case ActionKind::kSyscall:
            clock[t] += cm.kernel_syscall;
            break;
          case ActionKind::kLockAcquire:
          case ActionKind::kLockRelease:
            clock[t] += cm.lock_primitive;
            break;
          case ActionKind::kDetect:
            // Baseline of an instrumented binary: the sanitizer report
            // aborts the whole process here, not just this thread.
            aborted = true;
            abort_time = clock[t];
            done[t] = true;
            break;
          case ActionKind::kExit:
            done[t] = true;
            break;
          case ActionKind::kBarrier:
            break;  // handled above
        }
        if (done[t]) {
          break;
        }
        ++cursor[t];
      }
      if (!done[t] && cursor[t] >= trace.threads[t].actions.size()) {
        done[t] = true;
      }
    }
    if (aborted) {
      // Time-to-abort is the detecting thread's clock: whatever other
      // threads simulated past that instant died with the process.
      return abort_time;
    }
    if (!any_alive || at_barrier.empty()) {
      break;
    }
    // Every thread not parked at the barrier has exited. All threads
    // participate in every barrier (workload invariant), so a partial
    // participant set means some thread skipped this barrier: malformed
    // trace, the same verdict Run() reaches.
    if (at_barrier.size() < n_threads) {
      return InvalidArgument(
          "malformed trace: " + std::to_string(n_threads - at_barrier.size()) +
          " thread(s) exited before a barrier the others are waiting at");
    }
    double barrier_time = 0.0;
    for (size_t t : at_barrier) {
      barrier_time = std::max(barrier_time, clock[t]);
    }
    barrier_time += cm.lock_primitive;
    for (size_t t : at_barrier) {
      clock[t] = barrier_time;
      ++cursor[t];
    }
  }

  double finish = 0.0;
  for (size_t t = 0; t < n_threads; ++t) {
    finish = std::max(finish, clock[t]);
  }
  return finish;
}

}  // namespace

StatusOr<double> Engine::RunBaseline(const VariantTrace& trace,
                                     EngineWorkspace* workspace) const {
  if (workspace != nullptr) {
    return RunBaselineOn(config_.cost, trace, workspace->impl().baseline);
  }
  detail::BaselineBuffers local;
  return RunBaselineOn(config_.cost, trace, local);
}

StatusOr<SyncReport> Engine::Run(const std::vector<VariantTrace>& variants,
                                 EngineWorkspace* workspace) const {
  if (variants.empty()) {
    return InvalidArgument("no variants to run");
  }
  const size_t n_threads = variants[0].threads.size();
  for (const auto& v : variants) {
    if (v.threads.size() != n_threads) {
      return InvalidArgument("variant thread counts differ");
    }
  }
  if (config_.mode == LockstepMode::kSelective && config_.ring_capacity == 0) {
    return InvalidArgument("selective lockstep requires ring_capacity >= 1");
  }
  if (variants.size() > kMaxSessionWidth || n_threads > kMaxSessionWidth) {
    return InvalidArgument("session of " + std::to_string(variants.size()) + " variants x " +
                           std::to_string(n_threads) + " threads is wider than " +
                           std::to_string(kMaxSessionWidth) + " variants or threads");
  }
  if (workspace != nullptr) {
    return RunScheduled(config_, variants, workspace->impl());
  }
  EngineWorkspace::Impl local;
  return RunScheduled(config_, variants, local);
}

// The round-based fixpoint scheduler Run() replaced: every progress step
// re-scans all variants x threads per sync class, then restarts all passes.
// Retained verbatim (modulo the shared pre_main/post_exit arithmetic and
// hoisted scratch buffers) as the equivalence oracle — the property suite
// asserts Run() reproduces its SyncReport bit for bit.
StatusOr<SyncReport> Engine::RunReference(const std::vector<VariantTrace>& variants) const {
  if (variants.empty()) {
    return InvalidArgument("no variants to run");
  }
  const size_t n_variants = variants.size();
  const size_t n_threads = variants[0].threads.size();
  for (const auto& v : variants) {
    if (v.threads.size() != n_threads) {
      return InvalidArgument("variant thread counts differ");
    }
  }
  if (config_.mode == LockstepMode::kSelective && config_.ring_capacity == 0) {
    return InvalidArgument("selective lockstep requires ring_capacity >= 1");
  }

  const CostModel& cm = config_.cost;
  // Contention width: a shard engine runs a subset of a session's variants,
  // but the whole session shares the host's cache and cores.
  const size_t width = std::max(config_.contention_variants, n_variants);
  const double llc = cm.LlcMultiplier(width, config_.cache_sensitivity);
  const double serial = cm.SerializationMultiplier(width, std::max<size_t>(n_threads, 1));
  const double compute_factor = llc * serial;

  SyncReport report;
  report.variant_finish_time.assign(n_variants, 0.0);

  std::vector<VariantState> vs(n_variants);
  for (size_t v = 0; v < n_variants; ++v) {
    vs[v].threads.assign(n_threads, ThreadState{});
    // Pre-main sanitizer startup: costs time, produces ignored syscalls.
    const double startup =
        static_cast<double>(variants[v].pre_main.size()) * cm.kernel_syscall;
    report.ignored_syscalls += variants[v].pre_main.size();
    for (auto& t : vs[v].threads) {
      t.clock = startup;
    }
  }

  // Leader's published sync stream, per thread.
  std::vector<std::vector<PublishedSlot>> published(n_threads);
  // consume_time[v][t][k]: when follower v consumed slot k of thread t
  // (v == 0 unused). Needed to model ring-full stalls.
  std::vector<std::vector<std::vector<double>>> consume_time(
      n_variants, std::vector<std::vector<double>>(n_threads));

  std::vector<OrderEntry> order_list;  // leader's lock-acquisition total order

  // Reserve the per-action bookkeeping up front: the leader's trace bounds
  // every publish/consume/order append (followers replay its sync stream and
  // lock order), so sizing from one pass over it replaces the per-event
  // geometric regrowth of these vectors.
  {
    size_t leader_locks = 0;
    for (size_t t = 0; t < n_threads; ++t) {
      size_t leader_syncs = 0;
      const ThreadTrace& thread = variants[0].threads[t];
      for (const auto& action : thread.actions) {
        if (action.kind == ActionKind::kSyscall && sc::IsSyncRelevant(thread.RecordOf(action).no)) {
          ++leader_syncs;
        } else if (action.kind == ActionKind::kLockAcquire) {
          ++leader_locks;
        }
      }
      published[t].reserve(leader_syncs);
      for (size_t v = 1; v < n_variants; ++v) {
        consume_time[v][t].reserve(leader_syncs);
      }
    }
    order_list.reserve(leader_locks);
  }

  uint64_t gap_samples = 0;
  double gap_sum = 0.0;

  auto action_of = [&](size_t v, size_t t) -> const ThreadAction& {
    return variants[v].threads[t].actions[vs[v].threads[t].cursor];
  };
  auto record_of = [&](size_t v, size_t t) -> const sc::SyscallRecord& {
    return variants[v].threads[t].RecordOf(action_of(v, t));
  };
  auto thread_done = [&](size_t v, size_t t) { return vs[v].threads[t].park == Park::kDone; };

  // Advances local (non-blocking) actions of one thread until it parks.
  auto advance_local = [&](size_t v, size_t t) {
    ThreadState& ts = vs[v].threads[t];
    if (ts.park == Park::kDone) {
      return;
    }
    const ThreadTrace& thread = variants[v].threads[t];
    const auto& actions = thread.actions;
    while (ts.cursor < actions.size()) {
      const ThreadAction& a = actions[ts.cursor];
      switch (a.kind) {
        case ActionKind::kCompute:
          ts.clock += a.cost * variants[v].compute_scale * compute_factor;
          ++ts.cursor;
          continue;
        case ActionKind::kSyscall:
          if (!sc::IsSyncRelevant(thread.RecordOf(a).no)) {
            // Sanitizer memory-management syscall: executed locally, never
            // compared (§3.3 class 2).
            ts.clock += cm.kernel_syscall + cm.trap_hook;
            ++report.ignored_syscalls;
            ++ts.cursor;
            continue;
          }
          ts.park = Park::kSyscall;
          return;
        case ActionKind::kLockAcquire:
          ts.park = Park::kLock;
          return;
        case ActionKind::kLockRelease:
          ts.clock += cm.lock_primitive;
          ++ts.cursor;
          continue;
        case ActionKind::kBarrier:
          ts.park = Park::kBarrier;
          return;
        case ActionKind::kDetect:
          ts.park = Park::kDetect;
          return;
        case ActionKind::kExit:
          ts.park = Park::kDone;
          return;
      }
    }
    ts.park = Park::kDone;
  };

  auto all_done = [&]() {
    for (size_t v = 0; v < n_variants; ++v) {
      for (size_t t = 0; t < n_threads; ++t) {
        if (!thread_done(v, t)) {
          return false;
        }
      }
    }
    return true;
  };

  auto finish_incident = [&](SyncReport&& r) {
    r.aborted_all = true;
    for (size_t v = 0; v < n_variants; ++v) {
      double worst = 0.0;
      for (size_t t = 0; t < n_threads; ++t) {
        worst = std::max(worst, vs[v].threads[t].clock);
      }
      r.variant_finish_time[v] = worst;
      r.total_time = std::max(r.total_time, worst);
    }
    return r;
  };

  std::vector<size_t> waiting;  // reused barrier-pass scratch
  waiting.reserve(n_threads);

  for (;;) {
    for (size_t v = 0; v < n_variants; ++v) {
      for (size_t t = 0; t < n_threads; ++t) {
        advance_local(v, t);
      }
    }
    if (all_done()) {
      break;
    }

    // --- Detection has top priority: the variant's sanitizer aborted. -------
    {
      bool found = false;
      for (size_t v = 0; v < n_variants && !found; ++v) {
        for (size_t t = 0; t < n_threads && !found; ++t) {
          if (vs[v].threads[t].park == Park::kDetect) {
            report.detection =
                DetectionReport{v, t, variants[v].threads[t].DetectorOf(action_of(v, t))};
            found = true;
          }
        }
      }
      if (found) {
        return finish_incident(std::move(report));
      }
    }

    bool progressed = false;

    // --- Strict barriers / IO-write lockstep syscalls -----------------------
    // A sync point (t, k) executes when every variant's thread t is parked at
    // stream position k. In selective mode only IO-write-related syscalls use
    // this path.
    for (size_t t = 0; t < n_threads; ++t) {
      // All variants parked at a syscall with equal stream_pos?
      bool all_at = true;
      size_t k = 0;
      for (size_t v = 0; v < n_variants; ++v) {
        const ThreadState& ts = vs[v].threads[t];
        if (ts.park != Park::kSyscall) {
          all_at = false;
          break;
        }
        if (v == 0) {
          k = ts.stream_pos;
        } else if (ts.stream_pos != k) {
          all_at = false;
          break;
        }
      }
      if (!all_at) {
        continue;
      }
      const sc::SyscallRecord& leader_rec = record_of(0, t);
      const bool needs_lockstep = config_.mode == LockstepMode::kStrict ||
                                  sc::IsIoWriteRelated(leader_rec.no);
      if (!needs_lockstep) {
        continue;  // handled by the ring-buffer path below
      }

      // Argument agreement check (sequence + arguments, §2.2).
      for (size_t v = 1; v < n_variants; ++v) {
        const sc::SyscallRecord& rec = record_of(v, t);
        if (!rec.SameRequest(leader_rec)) {
          report.divergence = Divergence{v, t, k, sc::RecordToString(leader_rec),
                                         sc::RecordToString(rec)};
          return finish_incident(std::move(report));
        }
      }

      double max_arrival = 0.0;
      for (size_t v = 0; v < n_variants; ++v) {
        max_arrival = std::max(max_arrival, vs[v].threads[t].clock + cm.trap_hook);
      }
      const double exec = max_arrival + cm.sync_slot;
      const double done_time = exec + cm.kernel_syscall;
      for (size_t v = 0; v < n_variants; ++v) {
        ThreadState& ts = vs[v].threads[t];
        const double arrival = ts.clock + cm.trap_hook;
        const bool slept = arrival + 1e-12 < max_arrival;
        ts.clock = done_time + (v == 0 ? cm.sync_slot : cm.result_fetch) +
                   (slept ? cm.WakeupCost() : 0.0);
        ++ts.stream_pos;
        ++ts.cursor;
        ts.park = Park::kNone;
        if (v > 0) {
          // Keep the published stream consistent for later selective
          // consumers. A follower frees the slot when it has actually
          // fetched the result (done_time + result_fetch + wakeup), not
          // when the leader's kernel work finished — the gap metric and
          // ring free times depend on the real per-follower clock.
          consume_time[v][t].push_back(ts.clock);
        }
      }
      published[t].push_back({leader_rec, done_time});
      ++report.synced_syscalls;
      ++report.lockstep_barriers;
      progressed = true;
    }
    if (progressed) {
      continue;
    }

    if (config_.mode == LockstepMode::kSelective) {
      // --- Leader publish (ring buffer) -------------------------------------
      for (size_t t = 0; t < n_threads; ++t) {
        ThreadState& ts = vs[0].threads[t];
        if (ts.park != Park::kSyscall) {
          continue;
        }
        const sc::SyscallRecord& rec = record_of(0, t);
        if (sc::IsIoWriteRelated(rec.no)) {
          continue;  // must go through the lockstep path
        }
        // Ring back-pressure: publishing entry pub_count reuses the slot of
        // entry pub_count - capacity, so the leader stalls until the slowest
        // follower has fetched that entry. If a follower has not fetched it
        // yet we cannot know the free time — skip and retry once it has.
        const size_t pub_count = published[t].size();
        double free_time = 0.0;
        if (pub_count >= config_.ring_capacity) {
          const size_t idx = pub_count - config_.ring_capacity;
          bool slot_freed = true;
          for (size_t v = 1; v < n_variants; ++v) {
            if (idx >= consume_time[v][t].size()) {
              slot_freed = false;  // follower has not reached it yet
              break;
            }
            free_time = std::max(free_time, consume_time[v][t][idx]);
          }
          if (!slot_freed) {
            continue;  // follower must make progress first
          }
        }
        const double arrival = ts.clock + cm.trap_hook;
        const bool stalled = arrival + 1e-12 < free_time;
        const double start = std::max(arrival, free_time) + cm.sync_slot;
        const double avail = start + cm.kernel_syscall;
        ts.clock = avail + cm.sync_slot + (stalled ? cm.WakeupCost() : 0.0);
        published[t].push_back({rec, avail});
        ++ts.stream_pos;
        ++ts.cursor;
        ts.park = Park::kNone;
        ++report.synced_syscalls;
        progressed = true;
      }

      // --- Follower consume --------------------------------------------------
      for (size_t v = 1; v < n_variants; ++v) {
        for (size_t t = 0; t < n_threads; ++t) {
          ThreadState& ts = vs[v].threads[t];
          if (ts.park != Park::kSyscall) {
            continue;
          }
          const size_t k = ts.stream_pos;
          if (k >= published[t].size()) {
            continue;  // leader has not published this slot yet
          }
          const sc::SyscallRecord& rec = record_of(v, t);
          // Note: a slot only exists here when the leader's k-th record went
          // through the ring (non-IO). If the follower's record is IO-related
          // the comparison below reports the sequence divergence.
          const PublishedSlot& slot = published[t][k];
          if (!rec.SameRequest(slot.record)) {
            report.divergence =
                Divergence{v, t, k, sc::RecordToString(slot.record), sc::RecordToString(rec)};
            return finish_incident(std::move(report));
          }
          const double arrival = ts.clock + cm.trap_hook;
          const bool slept = arrival + 1e-12 < slot.avail_time;
          ts.clock = std::max(arrival, slot.avail_time) + cm.result_fetch +
                     (slept ? cm.WakeupCost() : 0.0);
          consume_time[v][t].push_back(ts.clock);
          ++ts.stream_pos;
          ++ts.cursor;
          ts.park = Park::kNone;
          progressed = true;
        }
      }
      if (progressed) {
        continue;
      }
    }

    // --- Intra-variant barriers --------------------------------------------
    for (size_t v = 0; v < n_variants; ++v) {
      // Group parked barrier threads by sync_id; release when every live
      // thread that will ever reach this barrier is parked at it. We use the
      // workload invariant that all threads of a variant participate in
      // every barrier.
      waiting.clear();
      bool possible = true;
      for (size_t t = 0; t < n_threads; ++t) {
        const ThreadState& ts = vs[v].threads[t];
        if (ts.park == Park::kBarrier) {
          waiting.push_back(t);
        } else if (ts.park != Park::kDone) {
          possible = false;  // someone is still on the way (or blocked)
        }
      }
      if (!possible || waiting.empty()) {
        continue;  // someone is still on the way to the barrier
      }
      // Every live thread of the variant is parked at the barrier. All
      // threads participate in every barrier (workload invariant), so a
      // thread that already exited skipped this one: malformed trace, the
      // same verdict RunBaseline reaches.
      if (waiting.size() < n_threads) {
        return InvalidArgument(
            "malformed trace: variant " + std::to_string(v) + ": " +
            std::to_string(n_threads - waiting.size()) +
            " thread(s) exited before a barrier the others are waiting at");
      }
      double release = 0.0;
      for (size_t t : waiting) {
        release = std::max(release, vs[v].threads[t].clock);
      }
      release += cm.lock_primitive;
      for (size_t t : waiting) {
        ThreadState& ts = vs[v].threads[t];
        const bool slept = ts.clock + 1e-12 < release - cm.lock_primitive;
        ts.clock = release + (slept ? cm.WakeupCost() : 0.0);
        ++ts.cursor;
        ts.park = Park::kNone;
      }
      progressed = true;
    }
    if (progressed) {
      continue;
    }

    // --- Lock acquisitions (weak determinism, §3.3/§4.2) --------------------
    // Leader: pick the parked acquisition with the smallest clock and append
    // it to the order list.
    {
      size_t best_t = SIZE_MAX;
      for (size_t t = 0; t < n_threads; ++t) {
        if (vs[0].threads[t].park == Park::kLock &&
            (best_t == SIZE_MAX || vs[0].threads[t].clock < vs[0].threads[best_t].clock)) {
          best_t = t;
        }
      }
      if (best_t != SIZE_MAX) {
        ThreadState& ts = vs[0].threads[best_t];
        ts.clock += cm.lock_primitive + cm.synccall;
        order_list.push_back({best_t, ts.clock});
        vs[0].last_acquire_time = ts.clock;
        ++ts.cursor;
        ts.park = Park::kNone;
        ++report.lock_acquisitions;
        progressed = true;
      }
    }
    // Followers: replay the order list.
    for (size_t v = 1; v < n_variants; ++v) {
      VariantState& state = vs[v];
      if (state.order_cursor >= order_list.size()) {
        continue;  // leader has not defined the next acquisition yet
      }
      const OrderEntry& entry = order_list[state.order_cursor];
      ThreadState& ts = state.threads[entry.thread];
      if (ts.park != Park::kLock) {
        continue;  // that thread is not there yet
      }
      const double start = std::max({ts.clock, state.last_acquire_time, entry.leader_time});
      const bool slept = ts.clock + 1e-12 < start;
      ts.clock = start + cm.lock_primitive + cm.synccall + (slept ? cm.WakeupCost() : 0.0);
      state.last_acquire_time = ts.clock;
      ++state.order_cursor;
      ++ts.cursor;
      ts.park = Park::kNone;
      progressed = true;
    }
    if (progressed) {
      continue;
    }

    // --- No progress: either a sequence-length divergence or an engine bug.
    for (size_t t = 0; t < n_threads; ++t) {
      // Some variant finished thread t while another still expects a sync
      // point there (missing arrival == divergence).
      bool someone_waiting = false;
      size_t waiting_variant = 0;
      bool someone_done = false;
      for (size_t v = 0; v < n_variants; ++v) {
        if (vs[v].threads[t].park == Park::kSyscall) {
          someone_waiting = true;
          waiting_variant = v;
        }
        if (vs[v].threads[t].park == Park::kDone) {
          someone_done = true;
        }
      }
      if (someone_waiting && someone_done) {
        report.divergence = Divergence{
            waiting_variant, t, vs[waiting_variant].threads[t].stream_pos,
            "<exited>", sc::RecordToString(record_of(waiting_variant, t))};
        return finish_incident(std::move(report));
      }
    }
    return Internal("engine deadlock: no runnable variant thread");
  }

  // Post-exit sanitizer reporting: ignored, costs time.
  for (size_t v = 0; v < n_variants; ++v) {
    const double extra =
        static_cast<double>(variants[v].post_exit.size()) * cm.kernel_syscall;
    report.ignored_syscalls += variants[v].post_exit.size();
    double worst = 0.0;
    for (size_t t = 0; t < n_threads; ++t) {
      worst = std::max(worst, vs[v].threads[t].clock);
    }
    report.variant_finish_time[v] = worst + extra;
    report.total_time = std::max(report.total_time, report.variant_finish_time[v]);
  }
  // Attack-window metric (§5.3), computed in *time* order: at the moment the
  // leader publishes its k-th syscall, how many of the first k slots has the
  // slowest follower already consumed? (Consumption times are monotone per
  // follower/thread, so a binary search suffices.)
  if (config_.mode == LockstepMode::kSelective && n_variants > 1) {
    for (size_t t = 0; t < n_threads; ++t) {
      for (size_t k = 0; k < published[t].size(); ++k) {
        const double when = published[t][k].avail_time;
        size_t min_consumed = SIZE_MAX;
        for (size_t v = 1; v < n_variants; ++v) {
          const auto& times = consume_time[v][t];
          const size_t consumed = static_cast<size_t>(
              std::upper_bound(times.begin(), times.end(), when) - times.begin());
          min_consumed = std::min(min_consumed, consumed);
        }
        const uint64_t gap = static_cast<uint64_t>(k + 1 - min_consumed);
        gap_sum += static_cast<double>(gap);
        ++gap_samples;
        report.max_syscall_gap = std::max(report.max_syscall_gap, gap);
      }
    }
  }

  report.completed = true;
  report.avg_syscall_gap = gap_samples > 0 ? gap_sum / static_cast<double>(gap_samples) : 0.0;
  return report;
}

}  // namespace nxe
}  // namespace bunshin
