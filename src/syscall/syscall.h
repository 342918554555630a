// Virtual syscall layer.
//
// The real Bunshin hooks the Linux syscall table with a loadable kernel
// module; variants trap here and the NXE compares sequences and arguments.
// This module defines the syscall vocabulary of our simulated processes: the
// numbers, argument records with payload digests, and the classifications the
// engine needs —
//   * sync-relevant vs ignorable (sanitizer memory-management syscalls are
//     excluded from comparison, §3.3),
//   * IO-write related (the syscalls that stay in lockstep even in
//     selective-lockstep mode, §3.3),
// and the one-byte sync class that combines them, which every syscall action
// of a trace carries (src/nxe/trace.h).
#ifndef BUNSHIN_SRC_SYSCALL_SYSCALL_H_
#define BUNSHIN_SRC_SYSCALL_SYSCALL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace bunshin {
namespace sc {

enum class Sysno : uint16_t {
  // File IO
  kRead,
  kWrite,
  kPread,
  kPwrite,
  kOpen,
  kClose,
  kStat,
  kFstat,
  kLseek,
  kReadlink,
  kUnlink,
  // Sockets
  kSocket,
  kBind,
  kListen,
  kAccept,
  kConnect,
  kSend,
  kRecv,
  kSendfile,
  kShutdown,
  kEpollWait,
  kPoll,
  // Memory management
  kMmap,
  kMunmap,
  kMprotect,
  kMadvise,
  kBrk,
  // Process / thread control
  kFork,
  kClone,
  kExecve,
  kExitGroup,
  kWait4,
  kKill,
  kFutex,
  // Time / identity (virtualized)
  kGettimeofday,
  kClockGettime,
  kGetpid,
  kGettid,
  kGetrandom,
  kUname,
  // Signals
  kRtSigaction,
  kRtSigreturn,
  // Bunshin's own hook: the unimplemented tuxcall repurposed as synccall
  // for weak-determinism lock ordering (§4.2).
  kSynccall,

  kCount,
};

const char* SysnoName(Sysno no);

// One trapped syscall: number, scalar args, and a digest of any memory
// payload (what the kernel would read from or write to user buffers). The
// NXE compares records for divergence, never raw buffers.
struct SyscallRecord {
  Sysno no = Sysno::kRead;
  std::array<int64_t, 6> args = {0, 0, 0, 0, 0, 0};
  uint64_t payload_digest = 0;
  int64_t result = 0;

  bool SameRequest(const SyscallRecord& other) const {
    return no == other.no && args == other.args && payload_digest == other.payload_digest;
  }
};

std::string RecordToString(const SyscallRecord& record);

// FNV-1a digest used for payload comparison.
uint64_t DigestBytes(const void* data, size_t size);
uint64_t DigestString(const std::string& s);

// --- Classification ---------------------------------------------------------

// Syscalls whose effects leave the process (writes, sends, exec, kill...).
// These are the "selected" syscalls of selective-lockstep: an attack must
// pass one of them to do external damage or leak data.
constexpr bool IsIoWriteRelated(Sysno no) {
  switch (no) {
    case Sysno::kWrite:
    case Sysno::kPwrite:
    case Sysno::kSend:
    case Sysno::kSendfile:
    case Sysno::kConnect:
    case Sysno::kExecve:
    case Sysno::kKill:
    case Sysno::kUnlink:
    case Sysno::kShutdown:
      return true;
    default:
      return false;
  }
}

// Memory-management syscalls a sanitizer runtime issues for its own metadata
// (mmap/munmap/mprotect/madvise/brk). The engine ignores them in divergence
// comparison (§3.3, class 2 of sanitizer-introduced syscalls).
constexpr bool IsMemoryManagement(Sysno no) {
  switch (no) {
    case Sysno::kMmap:
    case Sysno::kMunmap:
    case Sysno::kMprotect:
    case Sysno::kMadvise:
    case Sysno::kBrk:
      return true;
    default:
      return false;
  }
}

// Participates in sequence comparison at all (everything except memory
// management and the synccall hook).
constexpr bool IsSyncRelevant(Sysno no) {
  return !IsMemoryManagement(no) && no != Sysno::kSynccall && no != Sysno::kCount;
}

// How the NXE synchronizes a trapped syscall, which its number alone decides
// (§3.3). Lockstep is the zero value, so a syscall whose class was never set
// is compared in lockstep in both modes: at worst a spurious divergence,
// never a skipped comparison.
enum class SyncClass : uint8_t {
  kLockstep,  // IO-write related: lockstep in both modes
  kRing,      // lockstep in strict mode, through the ring in selective mode
  kIgnored,   // never compared: sanitizer memory management, the synccall hook
};

constexpr SyncClass SyncClassOf(Sysno no) {
  if (!IsSyncRelevant(no)) {
    return SyncClass::kIgnored;
  }
  return IsIoWriteRelated(no) ? SyncClass::kLockstep : SyncClass::kRing;
}

// Parses a sanitizer catalog entry like "mmap:shadow" or
// "read:/proc/self/maps" into a record (tag hashed into the digest).
SyscallRecord ParseIntroducedSyscall(const std::string& entry);

}  // namespace sc
}  // namespace bunshin

#endif  // BUNSHIN_SRC_SYSCALL_SYSCALL_H_
