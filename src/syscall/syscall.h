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
//     selective-lockstep mode, §3.3).
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
bool IsIoWriteRelated(Sysno no);

// Memory-management syscalls a sanitizer runtime issues for its own metadata
// (mmap/munmap/mprotect/madvise/brk). The engine ignores them in divergence
// comparison (§3.3, class 2 of sanitizer-introduced syscalls).
bool IsMemoryManagement(Sysno no);

// Participates in sequence comparison at all (everything except memory
// management and the synccall hook).
bool IsSyncRelevant(Sysno no);

// Parses a sanitizer catalog entry like "mmap:shadow" or
// "read:/proc/self/maps" into a record (tag hashed into the digest).
SyscallRecord ParseIntroducedSyscall(const std::string& entry);

}  // namespace sc
}  // namespace bunshin

#endif  // BUNSHIN_SRC_SYSCALL_SYSCALL_H_
