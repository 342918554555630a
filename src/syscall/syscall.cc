#include "src/syscall/syscall.h"

#include <sstream>

namespace bunshin {
namespace sc {

const char* SysnoName(Sysno no) {
  switch (no) {
    case Sysno::kRead:
      return "read";
    case Sysno::kWrite:
      return "write";
    case Sysno::kPread:
      return "pread";
    case Sysno::kPwrite:
      return "pwrite";
    case Sysno::kOpen:
      return "open";
    case Sysno::kClose:
      return "close";
    case Sysno::kStat:
      return "stat";
    case Sysno::kFstat:
      return "fstat";
    case Sysno::kLseek:
      return "lseek";
    case Sysno::kReadlink:
      return "readlink";
    case Sysno::kUnlink:
      return "unlink";
    case Sysno::kSocket:
      return "socket";
    case Sysno::kBind:
      return "bind";
    case Sysno::kListen:
      return "listen";
    case Sysno::kAccept:
      return "accept";
    case Sysno::kConnect:
      return "connect";
    case Sysno::kSend:
      return "send";
    case Sysno::kRecv:
      return "recv";
    case Sysno::kSendfile:
      return "sendfile";
    case Sysno::kShutdown:
      return "shutdown";
    case Sysno::kEpollWait:
      return "epoll_wait";
    case Sysno::kPoll:
      return "poll";
    case Sysno::kMmap:
      return "mmap";
    case Sysno::kMunmap:
      return "munmap";
    case Sysno::kMprotect:
      return "mprotect";
    case Sysno::kMadvise:
      return "madvise";
    case Sysno::kBrk:
      return "brk";
    case Sysno::kFork:
      return "fork";
    case Sysno::kClone:
      return "clone";
    case Sysno::kExecve:
      return "execve";
    case Sysno::kExitGroup:
      return "exit_group";
    case Sysno::kWait4:
      return "wait4";
    case Sysno::kKill:
      return "kill";
    case Sysno::kFutex:
      return "futex";
    case Sysno::kGettimeofday:
      return "gettimeofday";
    case Sysno::kClockGettime:
      return "clock_gettime";
    case Sysno::kGetpid:
      return "getpid";
    case Sysno::kGettid:
      return "gettid";
    case Sysno::kGetrandom:
      return "getrandom";
    case Sysno::kUname:
      return "uname";
    case Sysno::kRtSigaction:
      return "rt_sigaction";
    case Sysno::kRtSigreturn:
      return "rt_sigreturn";
    case Sysno::kSynccall:
      return "synccall";
    case Sysno::kCount:
      return "?";
  }
  return "?";
}

std::string RecordToString(const SyscallRecord& record) {
  std::ostringstream out;
  out << SysnoName(record.no) << "(";
  for (size_t i = 0; i < record.args.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << record.args[i];
  }
  out << ") digest=" << record.payload_digest << " -> " << record.result;
  return out.str();
}

uint64_t DigestBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

uint64_t DigestString(const std::string& s) { return DigestBytes(s.data(), s.size()); }

SyscallRecord ParseIntroducedSyscall(const std::string& entry) {
  SyscallRecord record;
  std::string name = entry;
  std::string tag;
  const size_t colon = entry.find(':');
  if (colon != std::string::npos) {
    name = entry.substr(0, colon);
    tag = entry.substr(colon + 1);
  }
  record.payload_digest = tag.empty() ? 0 : DigestString(tag);
  for (size_t i = 0; i < static_cast<size_t>(Sysno::kCount); ++i) {
    if (name == SysnoName(static_cast<Sysno>(i))) {
      record.no = static_cast<Sysno>(i);
      return record;
    }
  }
  // Unknown names map to read with the name folded into the digest; the
  // catalog should not produce these, but stay total.
  record.no = Sysno::kRead;
  record.payload_digest = DigestString(entry);
  return record;
}

}  // namespace sc
}  // namespace bunshin
