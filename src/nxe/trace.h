// Variant execution traces.
//
// A simulated variant process is described by the sequence of actions each of
// its threads performs: compute bursts (with a cost in abstract cycles),
// syscalls (with full argument records), and pthreads-style synchronization
// operations.
//
// Layout. A ThreadAction is a trivially copyable 16-byte record: its cost,
// one 32-bit argument and its kind. The argument's meaning depends on the
// kind:
//   kCompute                            unused (0); `cost` is the cycles
//   kLockAcquire, kLockRelease, kBarrier the sync id
//   kSyscall                            index into the thread's records
//   kDetect                             index into the thread's `detectors`
//   kExit                               unused (0)
// A thread's syscall records sit in two tables. `borrowed` is its template's
// table: immutable, and shared by every trace derived from that template, the
// baseline included. `syscalls` holds only the records this trace added
// itself: a sanitizer's memory-management syscalls, an attack overlay. An
// index with ThreadTrace::kOwnRecord set names `syscalls`, the others name
// the borrowed table, so resolving one costs a bit test, not a size read. A
// hand-built trace borrows nothing and owns all its records. Every table
// only grows: splicing an action in mid-stream appends
// its record and inserts one 16-byte action, and changing a record appends a
// modified copy and repoints its action, so no index already handed out moves
// and no shared record is ever written. The engine walks the dense action
// arrays and reads a record only at the syscalls it filters or synchronizes.
//
// The workload generators (src/workload) build one template per (benchmark,
// workload seed) and derive every variant's trace from it: a jitter pass over
// the compute costs plus an in-order merge of the sanitizer-introduced
// syscalls. A session thus holds one record table per template thread and
// one action array per variant. Attack behavior for the security
// experiments is spliced in on top (src/api/plan.cc, src/attack).
#ifndef BUNSHIN_SRC_NXE_TRACE_H_
#define BUNSHIN_SRC_NXE_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/syscall/syscall.h"

namespace bunshin {
namespace nxe {

enum class ActionKind : uint8_t {
  kCompute,      // burn `cost` cycles
  kSyscall,      // trap with the record `arg` names
  kLockAcquire,  // pthread_mutex_lock-style primitive on sync id `arg`
  kLockRelease,
  kBarrier,      // pthread_barrier_wait on sync id `arg` (all threads of variant)
  kDetect,       // a sanitizer check fired here (variant aborts with report)
  kExit,         // thread finishes
};

struct ThreadAction {
  double cost = 0.0;  // kCompute: cycles at scale 1; 0 for every other kind
  uint32_t arg = 0;   // sync id or table index, by kind (see the layout above)
  ActionKind kind = ActionKind::kCompute;

  static constexpr ThreadAction Compute(double cycles) {
    return {cycles, 0, ActionKind::kCompute};
  }
  static constexpr ThreadAction Lock(uint32_t id) { return {0.0, id, ActionKind::kLockAcquire}; }
  static constexpr ThreadAction Unlock(uint32_t id) {
    return {0.0, id, ActionKind::kLockRelease};
  }
  static constexpr ThreadAction Barrier(uint32_t id) { return {0.0, id, ActionKind::kBarrier}; }
  static constexpr ThreadAction Exit() { return {0.0, 0, ActionKind::kExit}; }
};
static_assert(sizeof(ThreadAction) == 16, "ThreadAction must stay a 16-byte record");
static_assert(std::is_trivially_copyable_v<ThreadAction>);

// A template thread's syscall records (see the layout above).
using RecordTable = std::vector<sc::SyscallRecord>;

struct ThreadTrace {
  std::vector<ThreadAction> actions;
  std::shared_ptr<const RecordTable> borrowed;  // the template's records, or null
  std::vector<sc::SyscallRecord> syscalls;      // records this trace added
  std::vector<std::string> detectors;           // kDetect report handlers, by action arg

  // Marks a kSyscall index into `syscalls` (see the layout above).
  static constexpr uint32_t kOwnRecord = 1u << 31;

  const sc::SyscallRecord& RecordOf(const ThreadAction& a) const {
    return (a.arg & kOwnRecord) != 0 ? syscalls[a.arg & ~kOwnRecord] : (*borrowed)[a.arg];
  }
  uint32_t SyncIdOf(const ThreadAction& a) const { return a.arg; }
  const std::string& DetectorOf(const ThreadAction& a) const { return detectors[a.arg]; }

  // Appends `record` to this trace's own table; returns the index a kSyscall
  // action names it by.
  uint32_t AddRecord(const sc::SyscallRecord& record) {
    syscalls.push_back(record);
    return kOwnRecord | static_cast<uint32_t>(syscalls.size() - 1);
  }
  // Points the syscall action at `pos` to `record`, added as a new record:
  // the one it named may be shared with other traces.
  void ReplaceRecord(size_t pos, const sc::SyscallRecord& record) {
    actions[pos].arg = AddRecord(record);
  }

  // Inserts before actions[pos] (pos == actions.size() appends). The
  // syscall and detect forms append the record or detector to its table.
  void Insert(size_t pos, ThreadAction action) {
    actions.insert(actions.begin() + static_cast<std::ptrdiff_t>(pos), action);
  }
  void InsertSyscall(size_t pos, const sc::SyscallRecord& record) {
    Insert(pos, {0.0, AddRecord(record), ActionKind::kSyscall});
  }
  void InsertDetect(size_t pos, std::string detector) {
    detectors.push_back(std::move(detector));
    Insert(pos, {0.0, static_cast<uint32_t>(detectors.size() - 1), ActionKind::kDetect});
  }

  void Append(ThreadAction action) { actions.push_back(action); }
  void AppendSyscall(const sc::SyscallRecord& record) { InsertSyscall(actions.size(), record); }
  void AppendDetect(std::string detector) { InsertDetect(actions.size(), std::move(detector)); }
};

struct VariantTrace {
  std::string name;
  // Multiplier on every compute cost — the sanitizer slowdown this variant
  // carries (1.0 == uninstrumented speed).
  double compute_scale = 1.0;
  // Syscalls the sanitizer runtime issues before main() and after exit();
  // the engine must not compare them (§3.3: sync starts at main, stops at
  // the first exit handler).
  std::vector<sc::SyscallRecord> pre_main;
  std::vector<sc::SyscallRecord> post_exit;
  std::vector<ThreadTrace> threads;

  size_t TotalActions() const {
    size_t n = 0;
    for (const auto& t : threads) {
      n += t.actions.size();
    }
    return n;
  }
  // Sum of compute cost at scale 1 across all threads (baseline work).
  double TotalComputeCost() const {
    double total = 0.0;
    for (const auto& t : threads) {
      for (const auto& a : t.actions) {
        if (a.kind == ActionKind::kCompute) {
          total += a.cost;
        }
      }
    }
    return total;
  }
  // Critical-path compute (slowest single thread) at the variant's scale.
  double CriticalPathCost() const {
    double worst = 0.0;
    for (const auto& t : threads) {
      double sum = 0.0;
      for (const auto& a : t.actions) {
        if (a.kind == ActionKind::kCompute) {
          sum += a.cost;
        }
      }
      worst = worst < sum ? sum : worst;
    }
    return worst * compute_scale;
  }
};

}  // namespace nxe
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NXE_TRACE_H_
