#include "src/api/shard.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

#include "src/support/thread_pool.h"

namespace bunshin {
namespace api {

// Per-run dispatch state, shared with the pool helpers. Helpers hold raw
// Backend views: every dereference belongs to a claimed shard, and the
// dispatching frame waits for every claimed shard to finish before
// returning, so no helper touches a backend after Run() ends — a helper
// that wakes late finds the counter exhausted and exits.
struct ShardedBackend::Dispatch {
  Dispatch(const RunRequest& r, const std::vector<std::unique_ptr<Backend>>& backends)
      : request(r), results(backends.size()), remaining(backends.size()) {
    shards.reserve(backends.size());
    for (const auto& backend : backends) {
      shards.push_back(backend.get());
    }
  }

  // Claims shards until none is left. Returns immediately when every shard
  // is already claimed.
  void ClaimShards() {
    for (size_t i; (i = next.fetch_add(1)) < shards.size();) {
      StatusOr<RunReport> report = shards[i]->Run(request);
      std::lock_guard<std::mutex> lock(mu);
      results[i].emplace(std::move(report));
      if (--remaining == 0) {
        done_cv.notify_one();
      }
    }
  }

  const RunRequest request;
  std::vector<const Backend*> shards;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;                         // remaining hit 0
  std::vector<std::optional<StatusOr<RunReport>>> results;  // by shard, under mu
  size_t remaining;                                        // under mu
};

ShardedBackend::ShardedBackend(std::shared_ptr<const VariantPlan> plan,
                               std::vector<std::unique_ptr<Backend>> shards,
                               const std::shared_ptr<support::ThreadPool>& pool, bool owns_pool)
    : plan_(std::move(plan)),
      shards_(std::move(shards)),
      pool_owner_(owns_pool ? pool : nullptr),
      pool_(pool.get()) {}

ShardedBackend::~ShardedBackend() = default;

const char* ShardedBackend::name() const { return shards_.front()->name(); }

const distribution::CheckDistributionPlan* ShardedBackend::check_plan() const {
  return plan_->check_plan.has_value() ? &*plan_->check_plan : nullptr;
}

const std::vector<std::vector<std::string>>* ShardedBackend::sanitizer_groups() const {
  return plan_->sanitizer_groups.empty() ? nullptr : &plan_->sanitizer_groups;
}

StatusOr<RunReport> ShardedBackend::Run(const RunRequest& request) const {
  const size_t n_shards = shards_.size();
  auto dispatch = std::make_shared<Dispatch>(request, shards_);

  if (pool_ != nullptr) {
    // One helper per extra shard; surplus helpers find nothing to claim.
    for (size_t h = 1; h < n_shards; ++h) {
      pool_->Submit([dispatch] { dispatch->ClaimShards(); });
    }
  }
  // The dispatcher claims too: a sharded run completes even when every pool
  // worker is busy dispatching other sharded runs (or there is no pool).
  dispatch->ClaimShards();
  {
    std::unique_lock<std::mutex> lock(dispatch->mu);
    dispatch->done_cv.wait(lock, [&dispatch] { return dispatch->remaining == 0; });
  }

  // Merge in shard order, so merging (and error reporting) is deterministic
  // regardless of completion order.
  std::vector<PartialReport> partials(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    StatusOr<RunReport>& report = *dispatch->results[i];
    if (!report.ok()) {
      return report.status();
    }
    partials[i].variant_index = shards_[i]->shard_coverage();
    partials[i].owns_baseline = shards_[i]->owns_baseline();
    partials[i].report = std::move(*report);
  }
  StatusOr<RunReport> merged = RunReport::Merge(plan_->n_variants(), partials);
  // Merge copied what it needed; hand the shard reports' arenas back to the
  // freelist the shard backends draw from.
  for (PartialReport& partial : partials) {
    RecycleReport(std::move(partial.report));
  }
  return merged;
}

}  // namespace api
}  // namespace bunshin
