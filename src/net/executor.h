// ExecutorServer: the daemon side of the multi-host execution plane.
//
// An executor accepts framed RunRequest messages (wire.h), rebuilds a trace
// backend from the requested VariantPlan — resolved through a local
// api::PlanCache keyed by the wire cache_key, so a fleet serving one hot plan
// decodes and validates it once, not once per request — runs the requested
// shard members, and streams back the PartialReport plus an occupancy
// snapshot (queue depth, in-flight runs) in every reply. A request that names
// its plan by key alone is served from the cache or answered kPlanUnknown; it
// never fills the cache. A request that carries plan bytes the cache already
// holds a plan for must encode exactly that plan, or it gets InvalidArgument.
// kStatsRequest returns the cumulative counters.
//
// Connections are persistent: each one is served on its own thread, which
// reads a request, runs it and writes the reply. At most
// ExecutorOptions::n_workers runs execute at once (a counting semaphore);
// the rest wait on their connection threads (queue_depth). The executor
// treats its peers as hostile and bounds them with constants, not options:
// kMaxConnections, and the idle, frame and send deadlines below.
//
// The same object backs both transports:
//   * ListenTcp(port) — the nvx_executord daemon;
//   * ConnectLoopback() — an in-process connection for tests, so the whole
//     dispatcher/executor/fault matrix runs without networking. Stop() then
//     Start() models killing and restarting a daemon process.
#ifndef BUNSHIN_SRC_NET_EXECUTOR_H_
#define BUNSHIN_SRC_NET_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <thread>
#include <vector>

#include "src/api/nvx.h"
#include "src/api/plan_cache.h"
#include "src/net/endpoint.h"
#include "src/net/wire.h"
#include "src/support/socket.h"
#include "src/support/status.h"

namespace bunshin {
namespace net {

struct ExecutorOptions {
  size_t n_workers = 0;          // runs executing at once; 0 = hardware concurrency
  size_t plan_cache_capacity = 64;
};

// Connections served at once; more are closed at accept.
inline constexpr size_t kMaxConnections = 64;
// A frame whose first byte arrived within kIdleDeadline (wire.h) must be
// complete by the idle deadline plus this.
inline constexpr std::chrono::milliseconds kFrameDeadline{5000};
// A reply the peer does not drain within this closes the connection.
inline constexpr std::chrono::milliseconds kSendDeadline{5000};

class ExecutorServer {
 public:
  explicit ExecutorServer(const ExecutorOptions& options = {});
  ~ExecutorServer();

  ExecutorServer(const ExecutorServer&) = delete;
  ExecutorServer& operator=(const ExecutorServer&) = delete;

  // --- Lifecycle -----------------------------------------------------------

  // (Re)starts a stopped server (a fresh ExecutorServer starts started).
  // Models an operator restarting a killed daemon; the plan cache restarts
  // cold, exactly like a real process restart.
  void Start();

  // Severs every live connection mid-whatever-they-were-doing (the "executor
  // killed mid-run" fault), closes the TCP listener if any, and rejects new
  // connections until Start(). Blocks until connection threads exited.
  void Stop();

  // --- Transports ----------------------------------------------------------

  // Binds 0.0.0.0:port (0 = ephemeral; see port()) and serves until Stop().
  // Accepting happens on a background thread; returns immediately.
  Status ListenTcp(uint16_t port);
  uint16_t port() const { return port_; }

  // Opens an in-process connection served by this executor. The returned
  // socket is the dispatcher's end. kUnavailable while stopped; at the
  // connection cap it is closed like a refused TCP connection.
  StatusOr<std::unique_ptr<support::Socket>> ConnectLoopback();

  // --- Introspection -------------------------------------------------------

  ExecutorOccupancy occupancy() const;
  ExecutorStats stats() const;
  // Connections currently tracked: being served, or finished and not yet
  // reaped (a finishing serve thread, and each accept, joins and closes the
  // ones that finished before it).
  size_t tracked_connections() const;
  api::PlanCacheStats plan_cache_stats() const { return plan_cache_.stats(); }

 private:
  // One served connection: its socket and the thread running its serve loop.
  struct Connection {
    std::shared_ptr<support::Socket> socket;
    std::thread thread;
  };

  // One connection's serve loop: read frame, handle, reply, repeat until the
  // peer, a deadline or Stop() ends the stream; then closes it.
  void ServeConnection(support::Socket& socket);
  void AcceptLoop();
  // Answers one kRunRequest payload with a kRunReply, or with kPlanUnknown
  // when the request names its plan by key and the cache does not hold it.
  void HandleRun(const std::string& payload, Frame* reply);
  // Tracks `socket` and starts its serve thread (or severs it when the
  // server is stopped or at the connection cap); reaps finished connections
  // first.
  void StartConnection(std::shared_ptr<support::Socket> socket);
  // Joins the serve threads whose loops returned and drops their sockets,
  // releasing their descriptors.
  void ReapFinishedConnections();

  api::PlanCache plan_cache_;
  // One slot per run allowed to execute at once (ExecutorOptions::n_workers).
  std::counting_semaphore<> run_slots_;

  mutable std::mutex mu_;
  bool stopped_ = false;
  std::map<uint64_t, Connection> connections_;  // by connection id
  std::vector<uint64_t> finished_;              // ids whose serve loop returned
  size_t serving_ = 0;                          // serve loops not yet returned
  uint64_t next_connection_id_ = 0;
  std::unique_ptr<support::TcpListener> listener_;
  std::thread accept_thread_;
  uint16_t port_ = 0;

  std::atomic<uint64_t> queue_depth_{0};
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> plan_cache_hits_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> analysis_rejects_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_refused_{0};
  std::atomic<uint64_t> deadline_closes_{0};
  std::atomic<uint64_t> plan_unknown_replies_{0};
};

// An Endpoint dialing `server` in-process: the loopback analogue of
// TcpEndpoint, used by tests and NvxBuilder::Remote() examples. The endpoint
// holds the server by shared_ptr, so fleet teardown order does not matter.
Endpoint LoopbackEndpoint(std::shared_ptr<ExecutorServer> server, std::string name);

}  // namespace net
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NET_EXECUTOR_H_
