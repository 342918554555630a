// RemoteBackend: the dispatcher side of the multi-host execution plane.
//
// The multi-host form of NvxBuilder::Shards(k): the same shard member groups
// (api::ShardMemberGroups — one rule for both), run on executors instead of
// one after another in-process. Each Run() takes one connection per group
// from the endpoint's idle list (or dials one), writes every group's request
// before reading any reply, so the executors run the groups at once, then
// reads the decoded, validated PartialReports in group order on the calling
// thread, returns the healthy connections to their lists, and merges the
// partials with RunReport::Merge — so a Remote(loopback) session is
// bit-identical to Shards(k) and to the unsharded session. A run spawns no
// threads.
//
// Plans travel by key: once an endpoint has answered a plan, requests to it
// carry only the plan's CacheKey. An executor whose cache misses answers
// kPlanUnknown, and the same request is resent with the plan bytes on the
// same connection (once per attempt). A reused connection that fails before
// any reply byte (the executor closed it: restart or idle deadline) is
// redialed once without spending an attempt or marking the endpoint.
//
// Routing is CacheKey-affine: group g of a plan goes to endpoint
// (fnv1a(plan.CacheKey()) + g) % E, so a fleet serving one hot plan sees
// every repeat request for a group land on the same executor's warm plan
// cache. Endpoints that fail are deprioritized for a cooldown and then
// re-probed with real traffic; failures retry on the next endpoint in
// affinity order (bounded by RemoteOptions::max_attempts, with doubling
// backoff). Only transport/decode failures retry — a genuine executor-side
// run error is deterministic and is returned as-is.
#ifndef BUNSHIN_SRC_NET_REMOTE_H_
#define BUNSHIN_SRC_NET_REMOTE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/net/endpoint.h"
#include "src/net/wire.h"
#include "src/support/socket.h"
#include "src/support/status.h"

namespace bunshin {
namespace net {

// FNV-1a over the plan's CacheKey: the affinity hash. Exposed for tests.
uint64_t AffinityHash(std::string_view cache_key);

// Reads the counters of the executor behind `endpoint` (a kStatsRequest on a
// fresh connection).
StatusOr<ExecutorStats> FetchExecutorStats(const Endpoint& endpoint, int timeout_ms);

class RemoteBackend final : public api::Backend {
 public:
  // `groups` comes from api::ShardMemberGroups; groups[0] owns the baseline.
  RemoteBackend(std::shared_ptr<const api::VariantPlan> plan,
                std::vector<std::vector<size_t>> groups, std::vector<Endpoint> endpoints,
                RemoteOptions options);

  // "trace": a remote session's merged report is indistinguishable from the
  // in-process sharded one — that is the equivalence the tests prove.
  const char* name() const override { return "trace"; }
  size_t n_variants() const override { return plan_->n_variants(); }
  const std::vector<std::string>& variant_labels() const override { return plan_->labels; }
  StatusOr<api::RunReport> Run(const api::RunRequest& request) const override;

  const distribution::CheckDistributionPlan* check_plan() const override {
    return plan_->check_plan.has_value() ? &*plan_->check_plan : nullptr;
  }

  // The endpoint group g is routed to first (before health rotation), for
  // affinity assertions in tests.
  size_t PreferredEndpoint(size_t group) const;

 private:
  // One attempt of one group against one endpoint, from send to reply.
  struct Call {
    size_t endpoint = 0;
    size_t group = 0;
    uint64_t request_id = 0;
    support::Deadline deadline;
    std::unique_ptr<support::Socket> socket;
    bool reused = false;     // taken from the idle list, and no reply read from it yet
    bool with_plan = false;  // the request in flight carries the plan bytes
    Status sent;             // the last send's outcome
  };

  // Endpoint order for one group's attempts: affinity rotation with healthy
  // endpoints first (unhealthy ones keep their relative order at the end —
  // still reachable, so an all-unhealthy fleet is probed rather than failed).
  std::vector<size_t> AttemptOrder(size_t group) const;
  // Takes or dials a connection to endpoint `e` and sends group's request.
  Call Start(size_t e, size_t group, const api::RunRequest& request) const;
  // (Re)sends the call's request, dialing first when it has no connection.
  void Send(Call& call, const api::RunRequest& request) const;
  // Reads the call's reply. On success the connection goes back to the idle
  // list; on any failure it is closed. Failures before a decoded reply are
  // retryable; a decoded reply is definitive.
  StatusOr<api::PartialReport> Finish(Call& call, const api::RunRequest& request) const;
  StatusOr<api::PartialReport> Receive(Call& call, const api::RunRequest& request) const;
  // Finishes the group's first attempt, `call`, started on order[0], then
  // retries along the attempt order.
  StatusOr<api::PartialReport> ExecuteGroup(const api::RunRequest& request,
                                            std::vector<size_t> order, Call call) const;
  void MarkFailure(size_t e) const;
  void MarkSuccess(size_t e, bool holds_plan) const;

  std::shared_ptr<const api::VariantPlan> plan_;
  std::vector<std::vector<size_t>> groups_;
  std::vector<Endpoint> endpoints_;
  RemoteOptions options_;

  // Computed once: every Run() of this session names the same plan, ships
  // the same plan bytes when asked, and routes by the same key.
  std::string cache_key_;
  std::string plan_bytes_;
  uint64_t affinity_;

  struct Health {
    bool unhealthy = false;
    std::chrono::steady_clock::time_point retry_after;  // cooldown expiry
  };
  mutable std::mutex mu_;  // guards health_, holds_plan_, next_request_id_
  mutable std::vector<Health> health_;
  // Per endpoint: it answered this plan, so requests to it go by key alone.
  mutable std::vector<bool> holds_plan_;
  mutable uint64_t next_request_id_ = 1;
};

}  // namespace net
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NET_REMOTE_H_
