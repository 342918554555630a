#include "src/net/remote.h"

#include <optional>
#include <thread>
#include <utility>

namespace bunshin {
namespace net {
namespace {

// A pooled connection idle longer than this is not reused: the executor
// closes it at kIdleDeadline, and a request must not race that close.
constexpr auto kMaxPooledIdle = kIdleDeadline / 2;

}  // namespace

uint64_t AffinityHash(std::string_view cache_key) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : cache_key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

StatusOr<ExecutorStats> FetchExecutorStats(const Endpoint& endpoint, int timeout_ms) {
  StatusOr<std::unique_ptr<support::Socket>> dialed = endpoint.dial();
  if (!dialed.ok()) {
    return dialed.status();
  }
  support::Socket& socket = **dialed;
  const support::Deadline deadline = support::DeadlineAfter(timeout_ms);
  Status sent = WriteFrame(socket, Frame{MessageType::kStatsRequest, 1, ""}, deadline);
  if (!sent.ok()) {
    return sent;
  }
  StatusOr<Frame> reply = ReadFrame(socket, deadline, deadline);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply->type != MessageType::kStatsReply || reply->request_id != 1) {
    return InvalidArgument("wire: expected a stats reply");
  }
  return DecodeExecutorStats(reply->payload);
}

RemoteBackend::RemoteBackend(std::shared_ptr<const api::VariantPlan> plan,
                             std::vector<std::vector<size_t>> groups,
                             std::vector<Endpoint> endpoints, RemoteOptions options)
    : plan_(std::move(plan)),
      groups_(std::move(groups)),
      endpoints_(std::move(endpoints)),
      options_(options),
      cache_key_(plan_->CacheKey()),
      plan_bytes_(EncodeVariantPlan(*plan_)),
      affinity_(AffinityHash(cache_key_)),
      health_(endpoints_.size()),
      holds_plan_(endpoints_.size(), false) {}

size_t RemoteBackend::PreferredEndpoint(size_t group) const {
  return (affinity_ + group) % endpoints_.size();
}

std::vector<size_t> RemoteBackend::AttemptOrder(size_t group) const {
  const size_t n = endpoints_.size();
  const size_t start = PreferredEndpoint(group);
  std::vector<size_t> healthy;
  std::vector<size_t> unhealthy;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    const size_t e = (start + i) % n;
    // An expired cooldown re-admits the endpoint to the healthy rotation:
    // the next real request is its probe.
    if (health_[e].unhealthy && now < health_[e].retry_after) {
      unhealthy.push_back(e);
    } else {
      healthy.push_back(e);
    }
  }
  healthy.insert(healthy.end(), unhealthy.begin(), unhealthy.end());
  return healthy;
}

void RemoteBackend::MarkFailure(size_t e) const {
  std::lock_guard<std::mutex> lock(mu_);
  health_[e].unhealthy = true;
  health_[e].retry_after = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(options_.unhealthy_cooldown_ms);
}

void RemoteBackend::MarkSuccess(size_t e, bool holds_plan) const {
  std::lock_guard<std::mutex> lock(mu_);
  health_[e].unhealthy = false;
  if (holds_plan) {
    holds_plan_[e] = true;
  }
}

RemoteBackend::Call RemoteBackend::Start(size_t e, size_t group,
                                         const api::RunRequest& request) const {
  Call call;
  call.endpoint = e;
  call.group = group;
  call.deadline = support::DeadlineAfter(options_.timeout_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    call.request_id = next_request_id_++;
    call.with_plan = !holds_plan_[e];
  }
  call.socket = endpoints_[e].idle->Take(kMaxPooledIdle);
  call.reused = call.socket != nullptr;
  Send(call, request);
  return call;
}

void RemoteBackend::Send(Call& call, const api::RunRequest& request) const {
  if (call.socket == nullptr) {
    StatusOr<std::unique_ptr<support::Socket>> dialed = endpoints_[call.endpoint].dial();
    if (!dialed.ok()) {
      call.sent = dialed.status();
      return;
    }
    call.socket = std::move(*dialed);
  }
  RunRequestMsg msg;
  msg.cache_key = cache_key_;
  msg.n_variants = plan_->n_variants();
  msg.members = groups_[call.group];
  msg.owns_baseline = call.group == 0;
  msg.request = request;
  if (call.with_plan) {
    msg.plan_bytes = plan_bytes_;
  }
  Frame frame;
  frame.type = MessageType::kRunRequest;
  frame.request_id = call.request_id;
  frame.payload = EncodeRunRequestMsg(msg);
  call.sent = WriteFrame(*call.socket, frame, call.deadline);
}

StatusOr<api::PartialReport> RemoteBackend::Finish(Call& call,
                                                   const api::RunRequest& request) const {
  StatusOr<api::PartialReport> result = Receive(call, request);
  if (result.ok()) {
    endpoints_[call.endpoint].idle->Put(std::move(call.socket));
  }
  call.socket.reset();  // after an error, a timeout or a bad reply: closed, never pooled
  return result;
}

StatusOr<api::PartialReport> RemoteBackend::Receive(Call& call,
                                                    const api::RunRequest& request) const {
  const size_t e = call.endpoint;
  for (;;) {
    bool started = false;
    StatusOr<Frame> reply =
        call.sent.ok() ? ReadFrame(*call.socket, call.deadline, call.deadline, &started)
                       : StatusOr<Frame>(call.sent);
    if (!reply.ok()) {
      if (call.reused && !started && reply.status().code() == StatusCode::kUnavailable) {
        // The executor closed the idle connection (restart, or its idle
        // deadline) before any reply byte. Runs are deterministic, so
        // resending is safe: redial once, without spending an attempt.
        call.reused = false;
        call.socket.reset();
        Send(call, request);
        continue;
      }
      return reply.status();
    }
    call.reused = false;  // a reply arrived: a later failure is not a stale connection
    if (reply->request_id != call.request_id) {
      return InvalidArgument("wire: reply for request " + std::to_string(reply->request_id) +
                             ", expected " + std::to_string(call.request_id));
    }
    if (reply->type == MessageType::kPlanUnknown && !call.with_plan) {
      // Honoured once per attempt: the resend carries the plan, and a
      // plan-unknown answer to a request with its plan is a bad reply.
      StatusOr<PlanUnknownMsg> unknown = DecodePlanUnknownMsg(reply->payload);
      if (!unknown.ok()) {
        return unknown.status();
      }
      if (unknown->cache_key != cache_key_) {
        return InvalidArgument("wire: executor " + endpoints_[e].name +
                               " reported a different plan unknown");
      }
      call.with_plan = true;
      Send(call, request);
      continue;
    }
    if (reply->type != MessageType::kRunReply) {
      return InvalidArgument("wire: expected a run reply, got message type " +
                             std::to_string(static_cast<int>(reply->type)));
    }
    StatusOr<RunReplyMsg> decoded = DecodeRunReplyMsg(reply->payload, plan_->n_variants());
    if (!decoded.ok()) {
      return decoded.status();
    }
    MarkSuccess(e, decoded->run_status.ok());

    if (!decoded->run_status.ok()) {
      // A genuine executor-side run error: deterministic, so retrying it on
      // another executor cannot succeed. Wrap under kInternal so the caller
      // (and the retry loop) can tell it from a transport failure.
      return Status(StatusCode::kInternal, "executor " + endpoints_[e].name + " run failed: " +
                                               decoded->run_status.ToString());
    }

    // The executor echoed a valid partial — but for the *right* work? A
    // buggy or stale executor answering with different coverage must not
    // reach Merge looking like success.
    api::PartialReport partial = std::move(*decoded->partial);
    if (partial.variant_index != groups_[call.group] ||
        partial.owns_baseline != (call.group == 0)) {
      return InvalidArgument("wire: executor " + endpoints_[e].name +
                             " answered with different shard coverage than requested");
    }
    return partial;
  }
}

StatusOr<api::PartialReport> RemoteBackend::ExecuteGroup(const api::RunRequest& request,
                                                         std::vector<size_t> order,
                                                         Call call) const {
  const size_t group = call.group;
  Status last_error = Unavailable("no endpoints");
  int attempt = 0;
  // The first round follows the order `call` was started on; later rounds
  // are rebuilt, so health marks from this group's own failures (and
  // concurrent groups') reorder them away from dead peers.
  while (attempt < options_.max_attempts) {
    for (size_t e : order) {
      if (attempt >= options_.max_attempts) {
        break;
      }
      if (attempt > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.backoff_ms << (attempt - 1)));
        call = Start(e, group, request);
      }
      ++attempt;
      StatusOr<api::PartialReport> result = Finish(call, request);
      if (result.ok()) {
        return result;
      }
      if (result.status().code() == StatusCode::kInternal) {
        // Executor-side run error: definite, not retryable.
        return result.status();
      }
      MarkFailure(e);
      last_error = result.status();
    }
    order = AttemptOrder(group);
  }
  return Status(last_error.code(),
                "shard group " + std::to_string(group) + " failed after " +
                    std::to_string(attempt) + " attempt(s); last error: " + last_error.message());
}

StatusOr<api::RunReport> RemoteBackend::Run(const api::RunRequest& request) const {
  const size_t n_groups = groups_.size();
  // Every group's request goes out before any reply is read, so the
  // executors run the groups at once while this thread waits on group 0.
  std::vector<std::vector<size_t>> orders(n_groups);
  std::vector<Call> calls;
  calls.reserve(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    orders[g] = AttemptOrder(g);
    calls.push_back(Start(orders[g].front(), g, request));
  }

  // Collect in group order so merging is deterministic.
  std::vector<api::PartialReport> partials;
  partials.reserve(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    StatusOr<api::PartialReport> partial =
        ExecuteGroup(request, std::move(orders[g]), std::move(calls[g]));
    if (!partial.ok()) {
      return partial.status();
    }
    partials.push_back(std::move(*partial));
  }
  return api::RunReport::Merge(plan_->n_variants(), partials);
}

}  // namespace net
}  // namespace bunshin
