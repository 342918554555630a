#include "src/support/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <mutex>

namespace bunshin {
namespace support {

Deadline DeadlineAfter(int timeout_ms) {
  return timeout_ms > 0 ? std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms)
                        : kNoDeadline;
}

Status Socket::RecvAll(void* data, size_t n, Deadline deadline) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    StatusOr<size_t> got = RecvSome(p, n, deadline);
    if (!got.ok()) {
      return got.status();
    }
    p += *got;
    n -= *got;
  }
  return Status::Ok();
}

namespace {

std::string Errno(const std::string& what) { return what + ": " + std::strerror(errno); }

// Waits until `fd` is ready for `events` or `deadline` passes (kNoDeadline:
// no wait here; the caller blocks in the call itself). A deadline already
// past still polls once, so ready data is never refused.
Status PollUntil(int fd, short events, Deadline deadline, const char* what) {
  if (deadline == kNoDeadline) {
    return Status::Ok();
  }
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int timeout_ms = static_cast<int>(std::clamp<int64_t>(left.count(), 0, INT_MAX));
    struct pollfd pfd = {fd, events, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) {
      return Status::Ok();
    }
    if (ready == 0) {
      return DeadlineExceeded(std::string(what) + " deadline passed");
    }
    if (errno != EINTR) {
      return Unavailable(Errno("poll"));
    }
  }
}

// --- TCP -------------------------------------------------------------------

class TcpSocket final : public Socket {
 public:
  explicit TcpSocket(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TcpSocket() override {
    Close();
    // The fd is released only here, once no other thread can still be blocked
    // on it (callers join their I/O threads before dropping the last
    // reference) — closing an fd out from under a concurrent recv() would
    // race with kernel fd reuse.
    ::close(fd_);
  }

  // With a deadline, sends do not block (MSG_DONTWAIT) and a full buffer
  // waits in poll, so the deadline bounds the whole transfer.
  Status SendAll(const void* data, size_t n, Deadline deadline) override {
    const char* p = static_cast<const char*>(data);
    const int flags = MSG_NOSIGNAL | (deadline == kNoDeadline ? 0 : MSG_DONTWAIT);
    while (n > 0) {
      const ssize_t sent = ::send(fd_, p, n, flags);
      if (sent < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          Status ready = PollUntil(fd_, POLLOUT, deadline, "send");
          if (!ready.ok()) {
            return ready;
          }
          continue;
        }
        return Unavailable(Errno("send"));
      }
      p += sent;
      n -= static_cast<size_t>(sent);
    }
    return Status::Ok();
  }

  StatusOr<size_t> RecvSome(void* data, size_t n, Deadline deadline) override {
    const int flags = deadline == kNoDeadline ? 0 : MSG_DONTWAIT;
    for (;;) {
      Status ready = PollUntil(fd_, POLLIN, deadline, "receive");
      if (!ready.ok()) {
        return ready;
      }
      const ssize_t got = ::recv(fd_, data, n, flags);
      if (got == 0) {
        return Unavailable("connection closed by peer");
      }
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return Unavailable(Errno("recv"));
      }
      return static_cast<size_t>(got);
    }
  }

  void Close() override {
    // shutdown(), not close(): it wakes a thread blocked in recv()/poll()
    // (recv returns 0, surfaced as kUnavailable) and is safe to race with
    // in-flight I/O, while the fd itself stays valid until the destructor.
    if (!shut_down_.exchange(true, std::memory_order_acq_rel)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  const int fd_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace

StatusOr<std::unique_ptr<Socket>> TcpConnect(const std::string& host, uint16_t port,
                                             int timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgument("not a numeric IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Unavailable(Errno("socket"));
  }
  // Connect with a deadline: SO_SNDTIMEO bounds a blocking connect() (which
  // then fails with EINPROGRESS), and is cleared afterwards, so later sends
  // are bounded only by the deadlines their callers pass.
  struct timeval tv = {timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  if (timeout_ms > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status error = Unavailable(Errno("connect to " + host + ":" + std::to_string(port)));
    ::close(fd);
    return error;
  }
  if (timeout_ms > 0) {
    tv = {0, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return std::unique_ptr<Socket>(new TcpSocket(fd));
}

TcpListener::~TcpListener() {
  Close();
  if (fd_ >= 0) {
    ::close(fd_);  // safe here: any accept thread was woken and joined first
  }
}

Status TcpListener::Listen(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Unavailable(Errno("socket"));
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status error = Unavailable(Errno("bind port " + std::to_string(port)));
    ::close(fd_);  // no accept thread exists yet; release the fd immediately
    fd_ = -1;
    return error;
  }
  if (::listen(fd_, 64) != 0) {
    const Status error = Unavailable(Errno("listen"));
    ::close(fd_);
    fd_ = -1;
    return error;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Socket>> TcpListener::Accept() {
  if (fd_ < 0 || shut_down_.load(std::memory_order_acquire)) {
    return Unavailable("listener is closed");
  }
  for (;;) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      return std::unique_ptr<Socket>(new TcpSocket(client));
    }
    // A signal or a peer that reset before accept() leaves the listener
    // fine: take the next connection.
    if ((errno == EINTR || errno == ECONNABORTED) &&
        !shut_down_.load(std::memory_order_acquire)) {
      continue;
    }
    return Unavailable(Errno("accept"));
  }
}

void TcpListener::Close() {
  // Same split as TcpSocket::Close: shutdown() wakes a blocked accept()
  // (which then fails kUnavailable); the fd is released in the destructor.
  if (fd_ >= 0 && !shut_down_.exchange(true, std::memory_order_acq_rel)) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

// --- In-process loopback ---------------------------------------------------

namespace {

// One direction of a loopback connection. `closed` is sticky: either side
// closing wakes every waiter and fails further operations.
struct LoopbackStream {
  std::mutex mu;
  std::condition_variable cv;
  std::string buffer;
  size_t read_pos = 0;
  bool closed = false;
};

class LoopbackSocket final : public Socket {
 public:
  LoopbackSocket(std::shared_ptr<LoopbackStream> in, std::shared_ptr<LoopbackStream> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~LoopbackSocket() override { Close(); }

  // The buffer is unbounded, so a send never waits and `deadline` never
  // binds.
  Status SendAll(const void* data, size_t n, Deadline /*deadline*/) override {
    std::lock_guard<std::mutex> lock(out_->mu);
    if (out_->closed) {
      return Unavailable("connection closed");
    }
    out_->buffer.append(static_cast<const char*>(data), n);
    out_->cv.notify_all();
    return Status::Ok();
  }

  StatusOr<size_t> RecvSome(void* data, size_t n, Deadline deadline) override {
    std::unique_lock<std::mutex> lock(in_->mu);
    const auto ready = [this] { return in_->buffer.size() > in_->read_pos || in_->closed; };
    if (deadline == kNoDeadline) {
      in_->cv.wait(lock, ready);
    } else if (!in_->cv.wait_until(lock, deadline, ready)) {
      return DeadlineExceeded("receive deadline passed");
    }
    const size_t available = in_->buffer.size() - in_->read_pos;
    if (available == 0) {
      return Unavailable("connection closed");
    }
    const size_t take = available < n ? available : n;
    std::memcpy(data, in_->buffer.data() + in_->read_pos, take);
    in_->read_pos += take;
    // Reclaim consumed bytes once the backlog is fully drained.
    if (in_->read_pos == in_->buffer.size()) {
      in_->buffer.clear();
      in_->read_pos = 0;
    }
    return take;
  }

  void Close() override {
    for (const auto& stream : {in_, out_}) {
      std::lock_guard<std::mutex> lock(stream->mu);
      stream->closed = true;
      stream->cv.notify_all();
    }
  }

 private:
  std::shared_ptr<LoopbackStream> in_;
  std::shared_ptr<LoopbackStream> out_;
};

}  // namespace

std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> LoopbackSocketPair() {
  auto a_to_b = std::make_shared<LoopbackStream>();
  auto b_to_a = std::make_shared<LoopbackStream>();
  return {std::unique_ptr<Socket>(new LoopbackSocket(b_to_a, a_to_b)),
          std::unique_ptr<Socket>(new LoopbackSocket(a_to_b, b_to_a))};
}

}  // namespace support
}  // namespace bunshin
