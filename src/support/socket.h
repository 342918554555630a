// A minimal byte-stream socket surface for the multi-host execution plane.
//
// The interface is deliberately tiny (SGX-LKL-style minimal host surface):
// send-all and receive-some under an absolute deadline, plus Close.
// Everything the wire layer needs, nothing more — which keeps the part of the
// system that touches untrusted bytes small and auditable.
//
// Two transports implement it:
//   * TcpSocket / TcpListener — POSIX TCP for real multi-host deployment
//     (nvx_executord listens, the dispatcher dials);
//   * loopback pairs (LoopbackSocketPair) — an in-process byte stream with
//     identical semantics (stream reassembly, peer-close wakeups, deadlines),
//     so every dispatcher/executor test runs without real networking or port
//     allocation.
//
// Deadlines are absolute (steady clock), so a caller that reads a frame in
// several calls gives all of them one deadline: a peer that trickles bytes
// cannot stretch it.
//
// Thread model: one thread sends while one thread receives; Close() may be
// called from any thread and wakes both directions (that is how a dispatcher
// observes a killed executor, and how Stop() tears down a daemon).
#ifndef BUNSHIN_SRC_SUPPORT_SOCKET_H_
#define BUNSHIN_SRC_SUPPORT_SOCKET_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/support/status.h"

namespace bunshin {
namespace support {

using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

// now + timeout_ms; kNoDeadline when timeout_ms <= 0.
Deadline DeadlineAfter(int timeout_ms);

class Socket {
 public:
  virtual ~Socket() = default;

  // Blocks until all n bytes are handed to the transport. kUnavailable when
  // the peer is gone; kDeadlineExceeded when `deadline` passed first.
  virtual Status SendAll(const void* data, size_t n, Deadline deadline) = 0;
  Status SendAll(const void* data, size_t n) { return SendAll(data, n, kNoDeadline); }

  // Blocks until at least one byte arrived, then reads up to n (n > 0) and
  // returns the count. kUnavailable when the stream closed first;
  // kDeadlineExceeded when `deadline` passed first. Bytes already buffered
  // are returned even past the deadline.
  virtual StatusOr<size_t> RecvSome(void* data, size_t n, Deadline deadline) = 0;

  // Blocks until exactly n bytes arrived, all by one `deadline`.
  Status RecvAll(void* data, size_t n, Deadline deadline);

  // The deadline ReadFrame(socket) gives a whole frame, in milliseconds from
  // the start of the read; <= 0 blocks forever.
  void SetRecvTimeout(int timeout_ms) { recv_timeout_ms_ = timeout_ms; }
  int recv_timeout_ms() const { return recv_timeout_ms_; }

  // Idempotent. Wakes any thread blocked in a send or receive (here and at
  // the peer); subsequent operations return kUnavailable.
  virtual void Close() = 0;

 private:
  int recv_timeout_ms_ = 0;
};

// --- TCP -------------------------------------------------------------------

// Dials host:port (host must be a numeric IPv4 address, e.g. "127.0.0.1"),
// giving up after timeout_ms (<= 0: the system's connect timeout).
StatusOr<std::unique_ptr<Socket>> TcpConnect(const std::string& host, uint16_t port,
                                             int timeout_ms = 10000);

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds 0.0.0.0:port and listens; port 0 picks an ephemeral port
  // (readable via port() afterwards).
  Status Listen(uint16_t port);
  uint16_t port() const { return port_; }

  // Blocks for the next connection, retrying EINTR/ECONNABORTED. kUnavailable
  // after Close(), or when accept() fails otherwise (EMFILE/ENFILE when the
  // process or system is out of descriptors: the listener stays usable).
  StatusOr<std::unique_ptr<Socket>> Accept();

  // Wakes a blocked Accept(); idempotent. Shuts the socket down but keeps
  // the fd alive until destruction, so a concurrently blocked Accept() never
  // touches a closed (possibly reused) descriptor.
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> shut_down_{false};
};

// --- In-process loopback ---------------------------------------------------

// A connected pair of in-process stream sockets: bytes sent on one end are
// received on the other, with real stream semantics (reassembly, peer-close,
// receive deadlines). Sends never block. No file descriptors, no networking.
std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> LoopbackSocketPair();

}  // namespace support
}  // namespace bunshin

#endif  // BUNSHIN_SRC_SUPPORT_SOCKET_H_
