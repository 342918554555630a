#include "src/analysis/trace_analyzer.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/syscall/syscall.h"

namespace bunshin {
namespace analysis {
namespace {

// One entry of a thread's "sync skeleton": the ordered subsequence of actions
// the engine's round loop actually synchronizes on. Compute bursts, ignored
// (sanitizer memory-management) syscalls, lock releases and detections are
// excluded — they never park a thread against another variant.
struct SkeletonEntry {
  nxe::ActionKind kind = nxe::ActionKind::kSyscall;
  const sc::SyscallRecord* record = nullptr;  // kSyscall only
};

const char* SkeletonKindName(nxe::ActionKind kind) {
  switch (kind) {
    case nxe::ActionKind::kSyscall:
      return "sync-relevant syscall";
    case nxe::ActionKind::kBarrier:
      return "barrier";
    case nxe::ActionKind::kLockAcquire:
      return "lock acquisition";
    default:
      return "action";
  }
}

std::string Loc(size_t variant) { return "variant " + std::to_string(variant); }

std::string Loc(size_t variant, size_t thread) {
  return "variant " + std::to_string(variant) + " thread " + std::to_string(thread);
}

constexpr size_t kNone = static_cast<size_t>(-1);

// The skeleton side of a thread walk (WalkThread, below) takes each syscall
// the engine compares, which the walk tells by the action's sync class as the
// engine does, and each barrier and lock acquisition. Three kinds exist: the
// leader's builder, a follower's matcher, and a no-op for followers that
// cannot be compared.

// Appends the leader's skeleton entries to one flat buffer.
class LeaderSkeleton {
 public:
  explicit LeaderSkeleton(std::vector<SkeletonEntry>* out) : out_(out) {}
  void Syscall(const sc::SyscallRecord& record) {
    out_->push_back({nxe::ActionKind::kSyscall, &record});
  }
  void SyncPoint(nxe::ActionKind kind) { out_->push_back({kind, nullptr}); }

 private:
  std::vector<SkeletonEntry>* out_;
};

// For a follower whose thread count differs from the leader's.
struct NoSkeleton {
  void Syscall(const sc::SyscallRecord& /*record*/) {}
  void SyncPoint(nxe::ActionKind /*kind*/) {}
};

// Compares one follower thread's skeleton with its leader thread's while the
// follower is walked, entry by entry, so the follower's skeleton is never
// stored. Finish() reports what the comparison of the whole skeletons
// finds: skeleton-mismatch, sequence-truncated or an expected divergence.
class SkeletonMatch {
 public:
  // `check_args`: whether to look for the first syscall whose arguments
  // differ (the variant has no predicted divergence yet).
  SkeletonMatch(const SkeletonEntry* leader, size_t leader_len, bool check_args)
      : leader_(leader), leader_len_(leader_len), check_args_(check_args) {}

  void Syscall(const sc::SyscallRecord& record) {
    // Traces derived from one template share its records, so a follower's
    // syscall usually names the very record at the leader's next sync
    // point: matched, with no look at the record. (Past a mismatch, Step
    // would only count it too.)
    if (len_ < leader_len_ && leader_[len_].record == &record) {
      ++len_;
    } else {
      Step(nxe::ActionKind::kSyscall, &record);
    }
  }
  void SyncPoint(nxe::ActionKind kind) { Step(kind, nullptr); }

  void Finish(size_t variant, size_t thread, bool* divergence_noted,
              AnalysisReport* report) const {
    const size_t common = std::min(leader_len_, len_);
    if (mismatch_ != kNone) {
      report->AddError(
          "liveness/skeleton-mismatch", Loc(variant, thread),
          "sync point " + std::to_string(mismatch_) + " is a " +
              SkeletonKindName(mismatch_kind_) + " but the leader has a " +
              SkeletonKindName(leader_[mismatch_].kind) +
              "; the engine round loop can stall with neither side recognizably parked",
          "regenerate the variant so barriers and lock acquisitions mirror the leader's order");
      return;
    }
    if (leader_len_ != len_) {
      const bool leader_longer = leader_len_ > len_;
      // An S-only suffix on one side of an otherwise-equal skeleton pair is
      // the engine's sequence-divergence shape: the longer side parks at a
      // syscall (Park::kSyscall) while the shorter side's thread is done
      // (Park::kDone), which the no-progress scan converts into a
      // divergence incident, never a deadlock.
      const bool syscall_suffix =
          leader_longer ? std::all_of(leader_ + common, leader_ + leader_len_,
                                      [](const SkeletonEntry& entry) {
                                        return entry.kind == nxe::ActionKind::kSyscall;
                                      })
                        : !extra_non_syscall_;
      if (syscall_suffix) {
        report->AddWarning(
            "liveness/sequence-truncated", Loc(variant, thread),
            "skeleton ends " + std::to_string(std::max(leader_len_, len_) - common) +
                " sync-relevant syscall(s) short of the " + (leader_longer ? "leader" : "variant") +
                "'s; the run will abort with a sequence divergence at sync point " +
                std::to_string(common),
            "pad or trim the trace so follower and leader issue the same syscall sequence");
        if (!*divergence_noted) {
          report->AddNote("analysis/expected-divergence", Loc(variant, thread),
                          "predicted sequence divergence at sync point " +
                              std::to_string(common) +
                              " (one side exits before the other's syscall)");
          *divergence_noted = true;
        }
        return;
      }
      report->AddError(
          "liveness/skeleton-mismatch", Loc(variant, thread),
          "skeletons differ in length (" + std::to_string(len_) + " vs leader " +
              std::to_string(leader_len_) +
              ") and the unmatched suffix contains barriers or lock acquisitions; the engine "
              "can park at a barrier/lock no peer will ever reach",
          "regenerate the variant so barriers and lock acquisitions mirror the leader's order");
      return;
    }
    // Identical skeleton shape: the syscall records the engine will compare
    // at run time (number + args + payload digest) were compared statically.
    if (!*divergence_noted && arg_diff_ != kNone) {
      report->AddNote("analysis/expected-divergence", Loc(variant, thread),
                      "predicted argument divergence at sync point " + std::to_string(arg_diff_) +
                          ": leader " + sc::RecordToString(*leader_[arg_diff_].record) + " vs " +
                          sc::RecordToString(*arg_record_));
      *divergence_noted = true;
    }
  }

 private:
  const SkeletonEntry* leader_;
  size_t leader_len_;
  bool check_args_;
  size_t len_ = 0;                  // follower entries so far
  size_t mismatch_ = kNone;         // first entry whose kind differs
  nxe::ActionKind mismatch_kind_ = nxe::ActionKind::kSyscall;
  bool extra_non_syscall_ = false;  // a B or L past the leader's end
  size_t arg_diff_ = kNone;         // first syscall whose request differs
  const sc::SyscallRecord* arg_record_ = nullptr;

  void Step(nxe::ActionKind kind, const sc::SyscallRecord* record) {
    const size_t i = len_++;
    if (mismatch_ != kNone) {
      return;
    }
    if (i >= leader_len_) {
      extra_non_syscall_ = extra_non_syscall_ || kind != nxe::ActionKind::kSyscall;
    } else if (leader_[i].kind != kind) {
      mismatch_ = i;
      mismatch_kind_ = kind;
    } else if (kind == nxe::ActionKind::kSyscall && check_args_ && arg_diff_ == kNone &&
               !leader_[i].record->SameRequest(*record)) {
      arg_diff_ = i;
      arg_record_ = record;
    }
  }
};

// Held-while-acquiring lock-order graph for one variant, edges a -> b when
// some thread acquires b while holding a. A cycle cannot deadlock the
// engine's weak-determinism replay (followers serialize on the leader's
// total acquisition order), but the same program under a preemptive OS
// scheduler can interleave into the classic ABBA deadlock. The edges are a
// flat list, sorted and de-duplicated when the cycle search starts; one
// graph serves every variant, so its buffers are reused.
class LockOrderGraph {
 public:
  void BeginThread() { held_.clear(); }

  void Acquire(uint32_t lock) {
    for (const uint32_t held : held_) {
      if (held != lock) {
        edges_.emplace_back(held, lock);
      }
    }
    held_.push_back(lock);
  }

  void Release(uint32_t lock) {
    if (!held_.empty() && held_.back() == lock) {
      held_.pop_back();  // the usual, innermost release
      return;
    }
    for (size_t i = held_.size(); i > 0; --i) {
      if (held_[i - 1] == lock) {
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i - 1));
        break;
      }
    }
  }

  // Returns a cycle as "lock a -> lock b -> ... -> lock a", or "" when the
  // graph is acyclic, and empties the graph for the next variant. The search
  // starts from each node with an out-edge in ascending order and follows
  // out-edges in ascending order, so it reports the same cycle for the same
  // edge set however the edges arrived.
  std::string TakeCycle() {
    std::string cycle;
    if (!edges_.empty()) {
      std::sort(edges_.begin(), edges_.end());
      edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
      nodes_.clear();
      for (const Edge& edge : edges_) {
        nodes_.push_back(edge.first);
        nodes_.push_back(edge.second);
      }
      std::sort(nodes_.begin(), nodes_.end());
      nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
      state_.assign(nodes_.size(), kNew);
      path_.clear();
      for (size_t e = 0; e < edges_.size() && cycle.empty(); ++e) {
        if (e == 0 || edges_[e].first != edges_[e - 1].first) {
          cycle = Visit(edges_[e].first);
        }
      }
    }
    edges_.clear();
    return cycle;
  }

 private:
  using Edge = std::pair<uint32_t, uint32_t>;
  enum : uint8_t { kNew, kOnPath, kDone };

  std::string Visit(uint32_t node) {
    uint8_t& mark =
        state_[static_cast<size_t>(std::lower_bound(nodes_.begin(), nodes_.end(), node) -
                                   nodes_.begin())];
    if (mark == kOnPath) {
      // Found a back edge: render the cycle from the first occurrence.
      std::string out;
      size_t start = 0;
      while (start < path_.size() && path_[start] != node) {
        ++start;
      }
      for (size_t i = start; i < path_.size(); ++i) {
        out += "lock " + std::to_string(path_[i]) + " -> ";
      }
      out += "lock " + std::to_string(node);
      return out;
    }
    if (mark == kDone) {
      return "";
    }
    mark = kOnPath;
    path_.push_back(node);
    auto edge = std::lower_bound(edges_.begin(), edges_.end(), node,
                                 [](const Edge& e, uint32_t from) { return e.first < from; });
    for (; edge != edges_.end() && edge->first == node; ++edge) {
      std::string cycle = Visit(edge->second);
      if (!cycle.empty()) {
        return cycle;
      }
    }
    path_.pop_back();
    mark = kDone;  // state_ was sized before the search, so `mark` is still valid
    return "";
  }

  std::vector<Edge> edges_;
  std::vector<uint32_t> held_;
  std::vector<uint32_t> nodes_;  // the search's distinct endpoints, sorted
  std::vector<uint8_t> state_;   // per nodes_ entry
  std::vector<uint32_t> path_;
};

// What a thread's walk counts besides its skeleton and lock-order edges.
struct ThreadTally {
  size_t barriers = 0;
  const std::string* detector = nullptr;  // the first kDetect's, if any
};

// Walks `thread` once: the syscalls the engine compares, barriers and lock
// acquisitions go to `skeleton`, acquisitions and releases to `graph`.
template <typename Skeleton>
ThreadTally WalkThread(const nxe::ThreadTrace& thread, Skeleton* skeleton,
                       LockOrderGraph* graph) {
  ThreadTally tally;
  graph->BeginThread();
  for (const nxe::ThreadAction& action : thread.actions) {
    // Compute bursts are about half of all actions. The tests below are
    // not one multi-way dispatch over the kinds: lock acquisitions and
    // releases take turns, so testing for one of them inside the lock
    // branch predicts well where a dispatch over the event kinds, in their
    // shuffled order, does not.
    const nxe::ActionKind kind = action.kind;
    if (kind == nxe::ActionKind::kCompute) {
      continue;
    }
    if (kind == nxe::ActionKind::kSyscall) {
      if (action.sync != sc::SyncClass::kIgnored) {
        skeleton->Syscall(thread.RecordOf(action));
      }
    } else if (kind == nxe::ActionKind::kLockAcquire || kind == nxe::ActionKind::kLockRelease) {
      if (kind == nxe::ActionKind::kLockAcquire) {
        graph->Acquire(thread.SyncIdOf(action));
        skeleton->SyncPoint(kind);
      } else {
        graph->Release(thread.SyncIdOf(action));
      }
    } else if (kind == nxe::ActionKind::kBarrier) {
      ++tally.barriers;
      skeleton->SyncPoint(kind);
    } else if (kind == nxe::ActionKind::kDetect && tally.detector == nullptr) {
      tally.detector = &thread.DetectorOf(action);
    }
  }
  return tally;
}

// What one variant's walk found for the rules reported after the skeleton
// comparison.
struct VariantFindings {
  size_t min_barriers = 0;  // per-thread barrier crossings
  size_t max_barriers = 0;
  std::string lock_cycle;               // "" when acyclic
  size_t detect_thread = kNone;         // first thread with a kDetect
  const std::string* detector = nullptr;  // that thread's first one
};

}  // namespace

void AnalyzeTraces(const nxe::EngineConfig& config,
                   const std::vector<nxe::VariantTrace>& variants, AnalysisReport* report) {
  if (variants.empty()) {
    report->AddError("liveness/no-variants", "", "no variants to run",
                     "plan at least one variant trace");
    return;
  }

  const size_t threads0 = variants[0].threads.size();
  if (variants.size() > nxe::kMaxSessionWidth || threads0 > nxe::kMaxSessionWidth) {
    report->AddError("liveness/session-width", "",
                     std::to_string(variants.size()) + " variant(s) x " +
                         std::to_string(threads0) + " thread(s) is wider than the engine's " +
                         std::to_string(nxe::kMaxSessionWidth) +
                         " variants or threads; the engine rejects it",
                     "split the session into narrower ones");
    return;
  }
  bool shape_ok = true;
  for (size_t v = 1; v < variants.size(); ++v) {
    if (variants[v].threads.size() != threads0) {
      report->AddError("liveness/variant-thread-count", Loc(v),
                       "has " + std::to_string(variants[v].threads.size()) +
                           " thread(s) but the leader has " + std::to_string(threads0) +
                           "; the engine rejects unequal thread counts",
                       "generate every variant from the same threaded template");
      shape_ok = false;
    }
  }

  if (config.mode == nxe::LockstepMode::kSelective && config.ring_capacity == 0) {
    report->AddError("liveness/ring-capacity", "",
                     "selective lockstep with ring_capacity 0; the engine requires >= 1",
                     "set EngineConfig::ring_capacity to at least 1");
  }

  // One walk per (variant, thread) feeds every rule below: barrier counts,
  // the sync skeleton (the leader's built once into one flat buffer, each
  // follower's compared entry by entry against it), lock-order edges and
  // the first detection. The findings are reported afterwards, rule by
  // rule, in variant order.
  std::vector<SkeletonEntry> leader;  // every leader thread's skeleton, in thread order
  leader.reserve(variants[0].TotalActions());
  std::vector<size_t> leader_begin(threads0 + 1);  // thread t's is [begin[t], begin[t + 1])
  AnalysisReport skeleton_findings;
  std::vector<VariantFindings> found(variants.size());
  LockOrderGraph graph;
  for (size_t v = 0; v < variants.size(); ++v) {
    const std::vector<nxe::ThreadTrace>& threads = variants[v].threads;
    VariantFindings& f = found[v];
    bool divergence_noted = false;
    for (size_t t = 0; t < threads.size(); ++t) {
      ThreadTally tally;
      if (v == 0) {
        LeaderSkeleton skeleton(&leader);
        tally = WalkThread(threads[t], &skeleton, &graph);
        leader_begin[t + 1] = leader.size();
      } else if (shape_ok) {
        SkeletonMatch match(leader.data() + leader_begin[t], leader_begin[t + 1] - leader_begin[t],
                            !divergence_noted);
        tally = WalkThread(threads[t], &match, &graph);
        match.Finish(v, t, &divergence_noted, &skeleton_findings);
      } else {
        NoSkeleton none;
        tally = WalkThread(threads[t], &none, &graph);
      }
      f.min_barriers = t == 0 ? tally.barriers : std::min(f.min_barriers, tally.barriers);
      f.max_barriers = t == 0 ? tally.barriers : std::max(f.max_barriers, tally.barriers);
      if (f.detector == nullptr && tally.detector != nullptr) {
        f.detect_thread = t;
        f.detector = tally.detector;
      }
    }
    f.lock_cycle = graph.TakeCycle();
  }
  // The leader's sync-relevant syscalls, which the ring back-pressure bound
  // reads.
  const size_t leader_syncs = static_cast<size_t>(
      std::count_if(leader.begin(), leader.end(), [](const SkeletonEntry& entry) {
        return entry.kind == nxe::ActionKind::kSyscall;
      }));

  // Barrier participation: unequal per-thread barrier counts inside one
  // variant mean some thread exits while its siblings park at a barrier —
  // the engine's "malformed trace" InvalidArgument.
  for (size_t v = 0; v < variants.size(); ++v) {
    const VariantFindings& f = found[v];
    if (variants[v].threads.size() >= 2 && f.min_barriers != f.max_barriers) {
      report->AddError(
          "liveness/barrier-participation", Loc(v),
          "threads cross between " + std::to_string(f.min_barriers) + " and " +
              std::to_string(f.max_barriers) +
              " barriers; a thread will exit before a barrier the others are waiting at "
              "(engine reports a malformed trace)",
          "every thread of a variant must participate in every barrier");
    }
  }

  // Sync-skeleton comparison against the leader (the deadlock-freedom core).
  for (const Diagnostic& diagnostic : skeleton_findings.diagnostics()) {
    report->Add(diagnostic);
  }

  // Lock-order cycles: deployment risk, not an engine error (see header).
  for (size_t v = 0; v < variants.size(); ++v) {
    if (!found[v].lock_cycle.empty()) {
      report->AddWarning(
          "liveness/lock-order-cycle", Loc(v),
          "lock-order graph has a cycle (" + found[v].lock_cycle +
              "); safe under the engine's serialized replay but a deadlock risk on real "
              "preemptive schedulers",
          "impose a global lock acquisition order across threads");
    }
  }

  // Ring back-pressure bound (§5.3 attack window) in selective mode.
  if (config.mode == nxe::LockstepMode::kSelective && variants.size() > 1 &&
      config.ring_capacity > 0) {
    if (leader_syncs > 0 && config.ring_capacity >= leader_syncs) {
      report->AddWarning(
          "liveness/ring-backpressure", Loc(0),
          "ring capacity " + std::to_string(config.ring_capacity) + " >= the leader's " +
              std::to_string(leader_syncs) +
              " sync-relevant syscalls: back-pressure never engages, so the detection-lag "
              "window is bounded only by trace length",
          "lower EngineConfig::ring_capacity below the leader's sync-relevant syscall count");
    } else if (leader_syncs > 0) {
      report->AddNote("liveness/ring-backpressure", Loc(0),
                      "leader run-ahead bounded at " + std::to_string(config.ring_capacity) +
                          " of " + std::to_string(leader_syncs) +
                          " sync-relevant syscalls by ring back-pressure");
    }
  }

  // Predicted detections: a kDetect in any thread aborts the whole system
  // with a detection report (the highest-priority engine round).
  for (size_t v = 0; v < variants.size(); ++v) {
    const VariantFindings& f = found[v];
    if (f.detect_thread != kNone) {
      report->AddNote("analysis/expected-detection", Loc(v, f.detect_thread),
                      "sanitizer check '" + *f.detector +
                          "' fires here; the engine aborts all variants with a detection "
                          "report");
    }
  }
}

}  // namespace analysis
}  // namespace bunshin
