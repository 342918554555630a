// Executor endpoints and dispatcher options for the multi-host execution
// plane. This header is deliberately free of api/ dependencies: api/nvx.h
// includes it so NvxBuilder::Remote() can accept endpoints by value, and the
// net/ layer includes it from the other side — no cycle.
#ifndef BUNSHIN_SRC_NET_ENDPOINT_H_
#define BUNSHIN_SRC_NET_ENDPOINT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/support/socket.h"
#include "src/support/status.h"

namespace bunshin {
namespace net {

// Idle connections to one executor, kept by the dispatcher for reuse.
class IdleConnections {
 public:
  // Idle connections kept per endpoint; one returned beyond this is closed.
  static constexpr size_t kCapacity = 16;

  // The most recently returned connection, or null. Connections idle for
  // longer than `max_idle` are closed instead of handed out.
  std::unique_ptr<support::Socket> Take(std::chrono::steady_clock::duration max_idle) {
    const auto now = std::chrono::steady_clock::now();
    std::vector<Idle> expired;  // closed outside the lock
    std::lock_guard<std::mutex> lock(mu_);
    // Oldest first: drop the expired prefix.
    size_t fresh = 0;
    while (fresh < idle_.size() && now - idle_[fresh].since > max_idle) {
      ++fresh;
    }
    expired.assign(std::make_move_iterator(idle_.begin()),
                   std::make_move_iterator(idle_.begin() + fresh));
    idle_.erase(idle_.begin(), idle_.begin() + fresh);
    if (idle_.empty()) {
      return nullptr;
    }
    std::unique_ptr<support::Socket> socket = std::move(idle_.back().socket);
    idle_.pop_back();
    return socket;
  }

  // Keeps a healthy connection for the next Take, unless kCapacity are kept.
  void Put(std::unique_ptr<support::Socket> socket) {
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_.size() < kCapacity) {
      idle_.push_back({std::move(socket), std::chrono::steady_clock::now()});
    }
  }

 private:
  struct Idle {
    std::unique_ptr<support::Socket> socket;
    std::chrono::steady_clock::time_point since;
  };
  std::mutex mu_;
  std::vector<Idle> idle_;  // oldest first
};

// One executor the dispatcher can reach. `dial` opens a fresh connection;
// `idle` holds the connections a finished run left open. Copies of an
// Endpoint share `idle`, so every session built on one fleet shares its
// connections. A connection the executor closed (restart, or its idle
// deadline) fails before any reply byte, and the dispatcher then dials anew.
struct Endpoint {
  std::string name;  // for logs, stats, and deterministic affinity ties
  std::function<StatusOr<std::unique_ptr<support::Socket>>()> dial;
  std::shared_ptr<IdleConnections> idle = std::make_shared<IdleConnections>();
};

// A TCP executor at host:port (host must be numeric IPv4).
inline Endpoint TcpEndpoint(const std::string& host, uint16_t port, int connect_timeout_ms = 5000) {
  Endpoint endpoint;
  endpoint.name = host + ":" + std::to_string(port);
  endpoint.dial = [host, port, connect_timeout_ms] {
    return support::TcpConnect(host, port, connect_timeout_ms);
  };
  return endpoint;
}

// Dispatcher behavior knobs (NvxBuilder::Remote's second argument).
struct RemoteOptions {
  // Per-request deadline, one absolute deadline per attempt: dial + send +
  // the executor's full run + reply. (A dial is bounded by its own connect
  // timeout too, e.g. TcpEndpoint's.)
  int timeout_ms = 10000;
  // Attempts per shard group across *different* executors (affinity order).
  // 1 = no retry. Only transport/decode failures retry; a genuine
  // executor-side run error is returned as-is — re-running a deterministic
  // failure elsewhere cannot succeed and would mask real bugs.
  int max_attempts = 3;
  // Base backoff between attempts; doubles per retry.
  int backoff_ms = 10;
  // How long an endpoint that failed stays deprioritized before the
  // dispatcher probes it again with real traffic.
  int unhealthy_cooldown_ms = 1000;
};

}  // namespace net
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NET_ENDPOINT_H_
