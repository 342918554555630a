#include "src/net/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/analysis/plan_analyzer.h"

namespace bunshin {
namespace net {
namespace {

std::ptrdiff_t RunSlots(size_t n_workers) {
  if (n_workers == 0) {
    n_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::ptrdiff_t>(n_workers);
}

}  // namespace

ExecutorServer::ExecutorServer(const ExecutorOptions& options)
    : plan_cache_(options.plan_cache_bytes), run_slots_(RunSlots(options.n_workers)) {}

ExecutorServer::~ExecutorServer() { Stop(); }

void ExecutorServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!stopped_) {
    return;
  }
  stopped_ = false;
  // A restarted daemon is a fresh process: its plan cache starts cold.
  plan_cache_.Clear();
}

void ExecutorServer::Stop() {
  std::map<uint64_t, Connection> connections;
  std::unique_ptr<support::TcpListener> listener;
  std::thread accept_thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    connections.swap(connections_);
    listener = std::move(listener_);
    accept_thread = std::move(accept_thread_);
  }
  // Close everything first (wakes blocked reads on both ends — the peer of a
  // mid-run connection observes kUnavailable, exactly like a killed daemon),
  // then join the serve threads.
  if (listener != nullptr) {
    listener->Close();
  }
  for (const auto& [id, connection] : connections) {
    connection.socket->Close();
  }
  for (auto& [id, connection] : connections) {
    connection.thread.join();
  }
  if (accept_thread.joinable()) {
    accept_thread.join();
  }
}

Status ExecutorServer::ListenTcp(uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    return FailedPrecondition("executor is stopped; Start() first");
  }
  if (listener_ != nullptr) {
    return AlreadyExists("executor is already listening on port " + std::to_string(port_));
  }
  auto listener = std::make_unique<support::TcpListener>();
  Status status = listener->Listen(port);
  if (!status.ok()) {
    return status;
  }
  port_ = listener->port();
  listener_ = std::move(listener);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ExecutorServer::AcceptLoop() {
  // Back-off after a failed accept on a live listener: the process or system
  // is out of descriptors (EMFILE/ENFILE), which reaping finished
  // connections and waiting out in-flight ones resolves.
  constexpr auto kAcceptBackoff = std::chrono::milliseconds(10);
  for (;;) {
    support::TcpListener* listener;
    {
      std::lock_guard<std::mutex> lock(mu_);
      listener = listener_.get();
      if (stopped_ || listener == nullptr) {
        return;
      }
    }
    StatusOr<std::unique_ptr<support::Socket>> accepted = listener->Accept();
    if (!accepted.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_) {
          return;  // listener closed by Stop()
        }
      }
      ReapFinishedConnections();
      std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    StartConnection(std::move(*accepted));
  }
}

StatusOr<std::unique_ptr<support::Socket>> ExecutorServer::ConnectLoopback() {
  auto [client, server] = support::LoopbackSocketPair();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return Unavailable("executor is stopped");
    }
  }
  StartConnection(std::move(server));
  return std::move(client);
}

void ExecutorServer::StartConnection(std::shared_ptr<support::Socket> socket) {
  ReapFinishedConnections();
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    // Lost the race with Stop(): sever immediately; the peer's first read
    // fails as it would against a killed daemon.
    socket->Close();
    return;
  }
  if (serving_ >= kMaxConnections) {
    connections_refused_.fetch_add(1, std::memory_order_relaxed);
    socket->Close();
    return;
  }
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  ++serving_;
  const uint64_t id = next_connection_id_++;
  Connection& connection = connections_[id];
  connection.socket = socket;
  // Started under mu_, so the thread's finish notice cannot precede its
  // registration.
  connection.thread = std::thread([this, socket, id] {
    ServeConnection(*socket);
    // Join the threads that finished before this one, so a server whose
    // connections persist does not keep exited threads and their
    // descriptors until the next accept.
    ReapFinishedConnections();
    std::lock_guard<std::mutex> finished_lock(mu_);
    finished_.push_back(id);
    --serving_;
  });
}

void ExecutorServer::ReapFinishedConnections() {
  std::vector<Connection> reaped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = connections_.find(id);
      if (it != connections_.end()) {  // absent: already joined by Stop()
        reaped.push_back(std::move(it->second));
        connections_.erase(it);
      }
    }
    finished_.clear();
  }
  for (Connection& connection : reaped) {
    connection.thread.join();  // its serve loop already returned
  }
}

void ExecutorServer::ServeConnection(support::Socket& socket) {
  for (;;) {
    const support::Deadline idle = std::chrono::steady_clock::now() + kIdleDeadline;
    StatusOr<Frame> frame = ReadFrame(socket, idle, idle + kFrameDeadline);
    if (!frame.ok()) {
      // Peer done, Stop(), a deadline, or an unrecoverable framing error.
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        deadline_closes_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    Frame reply;
    reply.request_id = frame->request_id;
    switch (frame->type) {
      case MessageType::kPing:
        reply.type = MessageType::kPong;
        reply.payload = EncodeOccupancy(occupancy());
        break;
      case MessageType::kStatsRequest:
        reply.type = MessageType::kStatsReply;
        reply.payload = EncodeExecutorStats(stats());
        break;
      case MessageType::kRunRequest:
        HandleRun(frame->payload, &reply);
        break;
      default: {
        // A reply-typed frame from a client is a protocol violation; answer
        // with a definite error so the peer never hangs.
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        RunReplyMsg error;
        error.run_status = InvalidArgument("unexpected message type on an executor connection");
        error.occupancy = occupancy();
        reply.type = MessageType::kRunReply;
        reply.payload = EncodeRunReplyMsg(error);
        break;
      }
    }
    Status sent =
        WriteFrame(socket, reply, std::chrono::steady_clock::now() + kSendDeadline);
    if (!sent.ok()) {
      if (sent.code() == StatusCode::kDeadlineExceeded) {
        deadline_closes_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
  }
  // The peer reads EOF now; the descriptor goes when the connection is
  // reaped.
  socket.Close();
}

void ExecutorServer::HandleRun(const std::string& payload, Frame* reply_frame) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  RunReplyMsg reply;
  reply_frame->type = MessageType::kRunReply;
  const auto finish = [&] { reply_frame->payload = EncodeRunReplyMsg(reply); };

  StatusOr<RunRequestMsg> msg = DecodeRunRequestMsg(payload);
  if (!msg.ok()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    reply.run_status = msg.status();
    reply.occupancy = occupancy();
    return finish();
  }

  // Plan resolution through the local cache: repeat plans (the common case —
  // one hot plan, many runs) skip decode and validation entirely.
  std::shared_ptr<const api::VariantPlan> plan;
  bool was_hit = false;
  if (msg->plan_bytes.empty()) {
    // Key-only: the cache alone answers, and a miss never creates an entry —
    // only a request that carries the plan can fill the cache.
    plan = plan_cache_.Lookup(msg->cache_key);
    if (plan == nullptr) {
      plan_unknown_replies_.fetch_add(1, std::memory_order_relaxed);
      reply_frame->type = MessageType::kPlanUnknown;
      reply_frame->payload = EncodePlanUnknownMsg(PlanUnknownMsg{msg->cache_key});
      return;
    }
    was_hit = true;
  } else {
    // The factory re-verifies that the decoded plan's own CacheKey matches
    // the claimed wire key, so a request cannot poison the cache under a
    // false key. The entry weighs its encoded bytes against the budget.
    const RunRequestMsg& request = *msg;
    StatusOr<std::shared_ptr<const api::VariantPlan>> resolved = plan_cache_.GetOrPlan(
        request.cache_key,
        [&request, this]() -> StatusOr<api::VariantPlan> {
          StatusOr<api::VariantPlan> decoded = DecodeVariantPlan(request.plan_bytes);
          if (!decoded.ok()) {
            return decoded.status();
          }
          if (decoded->CacheKey() != request.cache_key) {
            return InvalidArgument(
                "wire: request cache_key does not match the decoded plan's CacheKey");
          }
          // The wire is a trust boundary: a syntactically valid plan can
          // still be hostile (under-covered subsets, conflicting sanitizer
          // groups, deadlock-shaped configs). Run the full static analyzer
          // before the plan is cached or any backend is built from it;
          // rejection is a factory error, so a bad plan never occupies a
          // cache slot.
          analysis::AnalysisReport report = analysis::AnalyzePlan(*decoded);
          if (!report.ok()) {
            analysis_rejects_.fetch_add(1, std::memory_order_relaxed);
            return InvalidArgument("wire: plan rejected by static analysis: " +
                                   report.Summary() + "\n" + report.Render());
          }
          decoded->analysis =
              std::make_shared<const analysis::AnalysisReport>(std::move(report));
          return decoded;
        },
        &was_hit, request.plan_bytes.size());
    // The key names planning inputs only, so bytes under an honest key can
    // still carry other derived fields (specs, labels, check plan). A plan
    // served from the cache must be exactly the one these bytes encode, or
    // a hostile request could have planted the plan every later request for
    // the key runs.
    if (resolved.ok() && was_hit && EncodeVariantPlan(**resolved) != request.plan_bytes) {
      resolved = InvalidArgument(
          "wire: request plan bytes differ from the plan cached under its cache_key");
    }
    if (!resolved.ok()) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      reply.run_status = resolved.status();
      reply.occupancy = occupancy();
      return finish();
    }
    plan = std::move(*resolved);
  }
  if (was_hit) {
    plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (plan->n_variants() != msg->n_variants) {
    reply.run_status =
        InvalidArgument("wire: request n_variants " + std::to_string(msg->n_variants) +
                        " does not match the plan's " + std::to_string(plan->n_variants()));
    reply.occupancy = occupancy();
    return finish();
  }

  // A backend per request: its scratch starts empty, so every run here is
  // cold (docs/warm_path.md).
  StatusOr<std::unique_ptr<api::Backend>> backend =
      api::MakeTraceBackend(plan, msg->members, msg->owns_baseline);
  if (!backend.ok()) {
    reply.run_status = backend.status();
    reply.occupancy = occupancy();
    return finish();
  }

  // Run on this connection's thread once a run slot is free. queue_depth and
  // in_flight feed the occupancy snapshot of every reply.
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  run_slots_.acquire();
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<api::RunReport> report = (*backend)->Run(msg->request);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  run_slots_.release();

  reply.occupancy = occupancy();
  reply.occupancy.plan_cache_hit = was_hit;
  if (!report.ok()) {
    reply.run_status = report.status();
    return finish();
  }
  reply.run_status = Status::Ok();
  reply.partial = api::PartialReport{std::move(msg->members), msg->owns_baseline,
                                     std::move(*report)};
  finish();
}

ExecutorOccupancy ExecutorServer::occupancy() const {
  ExecutorOccupancy occupancy;
  occupancy.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  occupancy.in_flight = in_flight_.load(std::memory_order_relaxed);
  occupancy.plans_cached = plan_cache_.stats().entries;
  return occupancy;
}

ExecutorStats ExecutorServer::stats() const {
  ExecutorStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  stats.analysis_rejects = analysis_rejects_.load(std::memory_order_relaxed);
  stats.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = connections_refused_.load(std::memory_order_relaxed);
  stats.deadline_closes = deadline_closes_.load(std::memory_order_relaxed);
  stats.plan_unknown_replies = plan_unknown_replies_.load(std::memory_order_relaxed);
  return stats;
}

Endpoint LoopbackEndpoint(std::shared_ptr<ExecutorServer> server, std::string name) {
  Endpoint endpoint;
  endpoint.name = std::move(name);
  endpoint.dial = [server] { return server->ConnectLoopback(); };
  return endpoint;
}

}  // namespace net
}  // namespace bunshin
