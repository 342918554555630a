#include "src/analysis/trace_analyzer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
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

std::vector<SkeletonEntry> BuildSkeleton(const nxe::ThreadTrace& thread) {
  std::vector<SkeletonEntry> out;
  for (const nxe::ThreadAction& action : thread.actions) {
    switch (action.kind) {
      case nxe::ActionKind::kSyscall:
        if (sc::IsSyncRelevant(thread.RecordOf(action).no)) {
          out.push_back({action.kind, &thread.RecordOf(action)});
        }
        break;
      case nxe::ActionKind::kBarrier:
      case nxe::ActionKind::kLockAcquire:
        out.push_back({action.kind, nullptr});
        break;
      default:
        break;
    }
  }
  return out;
}

std::string Loc(size_t variant) { return "variant " + std::to_string(variant); }

std::string Loc(size_t variant, size_t thread) {
  return "variant " + std::to_string(variant) + " thread " + std::to_string(thread);
}

// True when entries [from, to) are all sync-relevant syscalls. An S-only
// suffix on one side of an otherwise-equal skeleton pair is the engine's
// sequence-divergence shape: the longer side parks at a syscall (Park::
// kSyscall) while the shorter side's thread is done (Park::kDone), which the
// no-progress scan converts into a divergence incident, never a deadlock.
bool AllSyscalls(const std::vector<SkeletonEntry>& entries, size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    if (entries[i].kind != nxe::ActionKind::kSyscall) {
      return false;
    }
  }
  return true;
}

// Held-while-acquiring lock-order graph for one variant, edges a -> b when
// some thread acquires b while holding a. A cycle cannot deadlock the
// engine's weak-determinism replay (followers serialize on the leader's
// total acquisition order), but the same program under a preemptive OS
// scheduler can interleave into the classic ABBA deadlock.
class LockOrderGraph {
 public:
  void AddThread(const nxe::ThreadTrace& thread) {
    held_.clear();
    for (const nxe::ThreadAction& action : thread.actions) {
      if (action.kind == nxe::ActionKind::kLockAcquire) {
        for (const uint32_t held : held_) {
          if (held != thread.SyncIdOf(action)) {
            edges_[held].insert(thread.SyncIdOf(action));
          }
        }
        held_.push_back(thread.SyncIdOf(action));
      } else if (action.kind == nxe::ActionKind::kLockRelease) {
        for (size_t i = held_.size(); i > 0; --i) {
          if (held_[i - 1] == thread.SyncIdOf(action)) {
            held_.erase(held_.begin() + static_cast<long>(i - 1));
            break;
          }
        }
      }
    }
  }

  // Returns a cycle as "a -> b -> ... -> a", or "" when the graph is acyclic.
  std::string FindCycle() const {
    std::map<uint32_t, int> state;  // 0 = new, 1 = on stack, 2 = done
    std::vector<uint32_t> path;
    for (const auto& [node, _] : edges_) {
      std::string cycle = Visit(node, &state, &path);
      if (!cycle.empty()) {
        return cycle;
      }
    }
    return "";
  }

 private:
  std::string Visit(uint32_t node, std::map<uint32_t, int>* state,
                    std::vector<uint32_t>* path) const {
    int& mark = (*state)[node];
    if (mark == 1) {
      // Found a back edge: render the cycle from the first occurrence.
      std::string out;
      size_t start = 0;
      while (start < path->size() && (*path)[start] != node) {
        ++start;
      }
      for (size_t i = start; i < path->size(); ++i) {
        out += "lock " + std::to_string((*path)[i]) + " -> ";
      }
      out += "lock " + std::to_string(node);
      return out;
    }
    if (mark == 2) {
      return "";
    }
    mark = 1;
    path->push_back(node);
    auto it = edges_.find(node);
    if (it != edges_.end()) {
      for (const uint32_t next : it->second) {
        std::string cycle = Visit(next, state, path);
        if (!cycle.empty()) {
          return cycle;
        }
      }
    }
    path->pop_back();
    (*state)[node] = 2;
    return "";
  }

  std::map<uint32_t, std::set<uint32_t>> edges_;
  std::vector<uint32_t> held_;
};

size_t CountBarriers(const nxe::ThreadTrace& thread) {
  size_t n = 0;
  for (const nxe::ThreadAction& action : thread.actions) {
    n += action.kind == nxe::ActionKind::kBarrier ? 1 : 0;
  }
  return n;
}

size_t CountSyncSyscalls(const nxe::VariantTrace& variant) {
  size_t n = 0;
  for (const nxe::ThreadTrace& thread : variant.threads) {
    for (const nxe::ThreadAction& action : thread.actions) {
      if (action.kind == nxe::ActionKind::kSyscall &&
          sc::IsSyncRelevant(thread.RecordOf(action).no)) {
        ++n;
      }
    }
  }
  return n;
}

// Compares one follower thread's skeleton against the leader's and reports
// skeleton-mismatch / sequence-truncated / expected-divergence findings.
// Returns true when an error was reported.
bool CompareSkeletons(size_t variant, size_t thread, const std::vector<SkeletonEntry>& leader,
                      const std::vector<SkeletonEntry>& follower, bool* divergence_noted,
                      AnalysisReport* report) {
  const size_t common = std::min(leader.size(), follower.size());
  size_t i = 0;
  while (i < common && leader[i].kind == follower[i].kind) {
    ++i;
  }
  if (i < common) {
    report->AddError(
        "liveness/skeleton-mismatch", Loc(variant, thread),
        "sync point " + std::to_string(i) + " is a " + SkeletonKindName(follower[i].kind) +
            " but the leader has a " + SkeletonKindName(leader[i].kind) +
            "; the engine round loop can stall with neither side recognizably parked",
        "regenerate the variant so barriers and lock acquisitions mirror the leader's order");
    return true;
  }
  if (leader.size() != follower.size()) {
    const std::vector<SkeletonEntry>& longer = leader.size() > follower.size() ? leader : follower;
    const char* longer_side = leader.size() > follower.size() ? "leader" : "variant";
    if (AllSyscalls(longer, common, longer.size())) {
      report->AddWarning(
          "liveness/sequence-truncated", Loc(variant, thread),
          "skeleton ends " + std::to_string(longer.size() - common) +
              " sync-relevant syscall(s) short of the " + longer_side +
              "'s; the run will abort with a sequence divergence at sync point " +
              std::to_string(common),
          "pad or trim the trace so follower and leader issue the same syscall sequence");
      if (!*divergence_noted) {
        report->AddNote("analysis/expected-divergence", Loc(variant, thread),
                        "predicted sequence divergence at sync point " + std::to_string(common) +
                            " (one side exits before the other's syscall)");
        *divergence_noted = true;
      }
      return false;
    }
    report->AddError(
        "liveness/skeleton-mismatch", Loc(variant, thread),
        "skeletons differ in length (" + std::to_string(follower.size()) + " vs leader " +
            std::to_string(leader.size()) +
            ") and the unmatched suffix contains barriers or lock acquisitions; the engine "
            "can park at a barrier/lock no peer will ever reach",
        "regenerate the variant so barriers and lock acquisitions mirror the leader's order");
    return true;
  }
  // Identical skeleton shape: statically compare the syscall records the
  // engine will compare at run time (number + args + payload digest).
  if (!*divergence_noted) {
    for (size_t s = 0; s < common; ++s) {
      if (leader[s].kind != nxe::ActionKind::kSyscall) {
        continue;
      }
      if (!leader[s].record->SameRequest(*follower[s].record)) {
        report->AddNote("analysis/expected-divergence", Loc(variant, thread),
                        "predicted argument divergence at sync point " + std::to_string(s) +
                            ": leader " + sc::RecordToString(*leader[s].record) + " vs " +
                            sc::RecordToString(*follower[s].record));
        *divergence_noted = true;
        break;
      }
    }
  }
  return false;
}

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

  // Barrier participation: unequal per-thread barrier counts inside one
  // variant mean some thread exits while its siblings park at a barrier —
  // the engine's "malformed trace" InvalidArgument.
  for (size_t v = 0; v < variants.size(); ++v) {
    const auto& threads = variants[v].threads;
    if (threads.size() < 2) {
      continue;
    }
    size_t min_count = CountBarriers(threads[0]);
    size_t max_count = min_count;
    for (size_t t = 1; t < threads.size(); ++t) {
      const size_t n = CountBarriers(threads[t]);
      min_count = std::min(min_count, n);
      max_count = std::max(max_count, n);
    }
    if (min_count != max_count) {
      report->AddError(
          "liveness/barrier-participation", Loc(v),
          "threads cross between " + std::to_string(min_count) + " and " +
              std::to_string(max_count) +
              " barriers; a thread will exit before a barrier the others are waiting at "
              "(engine reports a malformed trace)",
          "every thread of a variant must participate in every barrier");
    }
  }

  // Sync-skeleton comparison against the leader (the deadlock-freedom core).
  if (shape_ok) {
    std::vector<std::vector<SkeletonEntry>> leader_skeletons;
    leader_skeletons.reserve(threads0);
    for (const nxe::ThreadTrace& thread : variants[0].threads) {
      leader_skeletons.push_back(BuildSkeleton(thread));
    }
    for (size_t v = 1; v < variants.size(); ++v) {
      bool divergence_noted = false;
      for (size_t t = 0; t < threads0; ++t) {
        CompareSkeletons(v, t, leader_skeletons[t], BuildSkeleton(variants[v].threads[t]),
                         &divergence_noted, report);
      }
    }
  }

  // Lock-order cycles: deployment risk, not an engine error (see header).
  for (size_t v = 0; v < variants.size(); ++v) {
    LockOrderGraph graph;
    for (const nxe::ThreadTrace& thread : variants[v].threads) {
      graph.AddThread(thread);
    }
    const std::string cycle = graph.FindCycle();
    if (!cycle.empty()) {
      report->AddWarning(
          "liveness/lock-order-cycle", Loc(v),
          "lock-order graph has a cycle (" + cycle +
              "); safe under the engine's serialized replay but a deadlock risk on real "
              "preemptive schedulers",
          "impose a global lock acquisition order across threads");
    }
  }

  // Ring back-pressure bound (§5.3 attack window) in selective mode.
  if (config.mode == nxe::LockstepMode::kSelective && variants.size() > 1 &&
      config.ring_capacity > 0) {
    const size_t leader_syncs = CountSyncSyscalls(variants[0]);
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
    bool noted = false;
    for (size_t t = 0; t < variants[v].threads.size() && !noted; ++t) {
      const nxe::ThreadTrace& thread = variants[v].threads[t];
      for (const nxe::ThreadAction& action : thread.actions) {
        if (action.kind == nxe::ActionKind::kDetect) {
          report->AddNote("analysis/expected-detection", Loc(v, t),
                          "sanitizer check '" + thread.DetectorOf(action) +
                              "' fires here; the engine aborts all variants with a detection "
                              "report");
          noted = true;
          break;
        }
      }
    }
  }
}

AnalysisReport AnalyzeTracesReport(const nxe::EngineConfig& config,
                                   const std::vector<nxe::VariantTrace>& variants) {
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  return report;
}

}  // namespace analysis
}  // namespace bunshin
