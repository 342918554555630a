// ExecutorServer: the daemon side of the multi-host execution plane.
//
// An executor accepts framed RunRequest messages (wire.h), rebuilds a trace
// backend from the decoded VariantPlan — consulting a local api::PlanCache
// keyed by the wire cache_key, so a fleet serving one hot plan decodes and
// validates it once, not once per request — runs the requested shard members
// on its thread pool, and streams back the PartialReport plus an occupancy
// snapshot (queue depth, in-flight runs) in every reply. The dispatcher's
// affinity routing feeds on those snapshots.
//
// The same object backs both transports:
//   * ListenTcp(port) + Serve() — the nvx_executord daemon;
//   * ConnectLoopback() — an in-process connection for tests, so the whole
//     dispatcher/executor/fault matrix runs without networking. Stop() then
//     Start() models killing and restarting a daemon process.
#ifndef BUNSHIN_SRC_NET_EXECUTOR_H_
#define BUNSHIN_SRC_NET_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/api/nvx.h"
#include "src/api/plan_cache.h"
#include "src/net/endpoint.h"
#include "src/net/wire.h"
#include "src/support/socket.h"
#include "src/support/status.h"
#include "src/support/thread_pool.h"

namespace bunshin {
namespace net {

struct ExecutorOptions {
  size_t n_workers = 0;          // thread pool size; 0 = hardware concurrency
  size_t plan_cache_capacity = 64;
  // Idle engine states pooled per plan key across requests (the warm-run
  // path, docs/warm_path.md). 0 disables pooling: every run builds fresh
  // engine state. Bounds the daemon's resident arena memory at roughly
  // engine_pool_capacity * plan-sized workspaces per hot plan.
  size_t engine_pool_capacity = 8;
};

// Cumulative counters (tests and the daemon's shutdown log line).
struct ExecutorStats {
  uint64_t requests = 0;        // run requests handled (including failed ones)
  uint64_t plan_cache_hits = 0; // requests whose plan skipped decode/rebuild
  uint64_t decode_errors = 0;   // malformed frames or messages
  // Wire plans that decoded fine but failed static analysis (hostile or
  // under-covered plans, rejected before they reach the plan cache).
  uint64_t analysis_rejects = 0;
};

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
  // socket is the dispatcher's end. kUnavailable while stopped.
  StatusOr<std::unique_ptr<support::Socket>> ConnectLoopback();

  // --- Introspection -------------------------------------------------------

  ExecutorOccupancy occupancy() const;
  ExecutorStats stats() const;
  // Connections currently tracked: being served, or finished and not yet
  // reaped (finished ones are joined and closed at the next accept).
  size_t tracked_connections() const;
  api::PlanCacheStats plan_cache_stats() const { return plan_cache_.stats(); }

 private:
  // One served connection: its socket and the thread running its serve loop.
  struct Connection {
    std::shared_ptr<support::Socket> socket;
    std::thread thread;
  };

  // One connection's serve loop: read frame, handle, reply, repeat until the
  // peer or Stop() closes the stream.
  void ServeConnection(std::shared_ptr<support::Socket> socket);
  void AcceptLoop();
  // Handles one kRunRequest payload; always produces a reply frame.
  RunReplyMsg HandleRun(const std::string& payload);
  // Tracks `socket` and starts its serve thread (or severs it when the
  // server is stopped); reaps finished connections first.
  void StartConnection(std::shared_ptr<support::Socket> socket);
  // Joins the serve threads whose loops returned and drops their sockets,
  // releasing their descriptors.
  void ReapFinishedConnections();

  const ExecutorOptions options_;
  api::PlanCache plan_cache_;
  // Shared across every backend this daemon builds; null when pooling is
  // disabled (engine_pool_capacity == 0).
  std::shared_ptr<nxe::EnginePool> engine_pool_;
  std::unique_ptr<support::ThreadPool> pool_;

  mutable std::mutex mu_;
  bool stopped_ = false;
  std::map<uint64_t, Connection> connections_;  // by connection id
  std::vector<uint64_t> finished_;              // ids whose serve loop returned
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
};

// An Endpoint dialing `server` in-process: the loopback analogue of
// TcpEndpoint, used by tests and NvxBuilder::Remote() examples. The endpoint
// holds the server by shared_ptr, so fleet teardown order does not matter.
Endpoint LoopbackEndpoint(std::shared_ptr<ExecutorServer> server, std::string name);

}  // namespace net
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NET_EXECUTOR_H_
