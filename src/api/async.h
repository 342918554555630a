// Asynchronous session execution over a worker pool.
//
// The synchronous NvxSession blocks its caller for a whole synchronization
// run — unusable inside a server that must keep accepting requests while
// sessions synchronize (the monitor deployment of PAPER.md §3.3/§4.2). This
// layer runs sessions on support::ThreadPool workers and hands results back
// two ways:
//
//   * RunHandle — a future-style handle per submission (Wait() / TryGet());
//   * CompletionQueue — a queue many sessions can share; finished runs are
//     delivered as CompletionEvents (tagged with a caller token) in
//     completion order, so one dispatcher thread can drain an entire fleet.
//
//   auto pool = std::make_shared<support::ThreadPool>(8);
//   auto session = api::NvxBuilder().Benchmark(b).Variants(3).BuildAsync(pool);
//   api::CompletionQueue done;
//   for (uint64_t id = 0; id < 100; ++id) {
//     session->Submit({}, &done, /*token=*/id);
//   }
//   for (int i = 0; i < 100; ++i) {
//     api::CompletionEvent ev = done.Wait();   // ev.token, ev.report
//   }
//
// Observer callbacks still fire (inside NvxSession::Run, on the worker) and
// stay correctly sequenced per session: one run's on_variant_finish calls
// (in variant order) followed by its optional on_incident are delivered as
// one uninterleaved block even when many runs complete concurrently.
#ifndef BUNSHIN_SRC_API_ASYNC_H_
#define BUNSHIN_SRC_API_ASYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "src/api/nvx.h"
#include "src/support/thread_pool.h"

namespace bunshin {
namespace api {

// ---------------------------------------------------------------------------
// AsyncBackend: wraps any inner Backend and executes each Run() on a pool
// worker. The call still blocks its caller (Backend keeps its synchronous
// contract) — this is what NvxBuilder::Async(n).Build() produces, bounding
// how many synchronization runs execute at once no matter how many caller
// threads there are. For non-blocking submission use AsyncNvxSession.
// ---------------------------------------------------------------------------

class AsyncBackend final : public Backend {
 public:
  AsyncBackend(std::unique_ptr<Backend> inner, std::shared_ptr<support::ThreadPool> pool)
      : inner_(std::move(inner)), pool_(std::move(pool)) {}

  // Reports keep the inner backend's identity ("ir" / "trace").
  const char* name() const override { return inner_->name(); }
  size_t n_variants() const override { return inner_->n_variants(); }
  const std::vector<std::string>& variant_labels() const override {
    return inner_->variant_labels();
  }
  const distribution::CheckDistributionPlan* check_plan() const override {
    return inner_->check_plan();
  }
  const std::vector<std::vector<std::string>>* sanitizer_groups() const override {
    return inner_->sanitizer_groups();
  }
  // Shard seam forwards too: wrapping a shard in Async must not change what
  // its partial reports cover.
  std::vector<size_t> shard_coverage() const override { return inner_->shard_coverage(); }
  bool owns_baseline() const override { return inner_->owns_baseline(); }

  StatusOr<RunReport> Run(const RunRequest& request) const override;

  const std::shared_ptr<support::ThreadPool>& pool() const { return pool_; }

 private:
  std::unique_ptr<Backend> inner_;
  std::shared_ptr<support::ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// CompletionQueue: completion-order delivery of finished runs.
// ---------------------------------------------------------------------------

struct CompletionEvent {
  uint64_t token = 0;  // the caller's tag from Submit()
  StatusOr<RunReport> report{Status(StatusCode::kInternal, "pending")};
};

// Thread-safe; any number of sessions may push into one queue and any number
// of threads may drain it. Events are delivered FIFO per pushing thread —
// one thread's pushes come out in push order whenever pops are serialized —
// with no ordering across threads (consumers match events by token). The
// queue must outlive every session still submitting into it.
class CompletionQueue {
 public:
  CompletionQueue() = default;
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;
  // Debug builds abort when producers are still registered: a queue that
  // dies before its sessions is use-after-free the moment a run completes.
  ~CompletionQueue();

  // Blocks until an event is available.
  CompletionEvent Wait();
  // Alias of Wait(), matching the blocking-pop naming used elsewhere.
  CompletionEvent Pop() { return Wait(); }
  // Non-blocking; empty when no run has completed since the last drain.
  std::optional<CompletionEvent> TryNext();
  size_t size() const;

  // Called by sessions on run completion (public so custom executors can
  // feed the same queue).
  void Push(CompletionEvent event);

  // Lifetime tracking: submitters register while a push into this queue is
  // pending and deregister after the push. AsyncNvxSession::Submit does
  // this automatically; custom executors should too.
  void AddProducer() { producers_.fetch_add(1, std::memory_order_relaxed); }
  void RemoveProducer() { producers_.fetch_sub(1, std::memory_order_release); }
  size_t registered_producers() const {
    return producers_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<CompletionEvent> events_;
  std::atomic<size_t> producers_{0};
};

// ---------------------------------------------------------------------------
// RunHandle: future-style result of one Submit().
// ---------------------------------------------------------------------------

class RunHandle {
 public:
  RunHandle() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t token() const { return state_ == nullptr ? 0 : state_->token; }

  // Non-blocking: has the run finished?
  bool done() const;
  // Blocks until the run finishes and returns its result.
  StatusOr<RunReport> Wait() const;
  // Non-blocking: the result if finished, nullopt otherwise.
  std::optional<StatusOr<RunReport>> TryGet() const;

 private:
  friend class AsyncBackend;
  friend class AsyncNvxSession;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t token = 0;
    std::optional<StatusOr<RunReport>> result;
  };

  std::shared_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// AsyncNvxSession: a built N-version system whose runs are submitted, not
// awaited. Produced by NvxBuilder::BuildAsync(); many sessions may share one
// pool and one CompletionQueue.
// ---------------------------------------------------------------------------

class AsyncNvxSession {
 public:
  AsyncNvxSession(NvxSession session, std::shared_ptr<support::ThreadPool> pool);
  // Blocks until every submitted run has completed (results are never lost).
  ~AsyncNvxSession();

  AsyncNvxSession(AsyncNvxSession&&) = default;
  // Drains the overwritten session first — its completion-queue deliveries
  // finish before the assignment returns, same guarantee as the destructor.
  AsyncNvxSession& operator=(AsyncNvxSession&& other) noexcept;

  // Schedules one run on the pool and returns immediately. The optional
  // `completions` queue additionally receives a CompletionEvent tagged with
  // `token` once the run (and its observer callbacks) finished; the queue
  // must outlive the run.
  RunHandle Submit(RunRequest request = {});
  RunHandle Submit(RunRequest request, CompletionQueue* completions, uint64_t token);

  // Runs submitted but not yet completed.
  size_t outstanding() const;

  const std::shared_ptr<support::ThreadPool>& pool() const { return pool_; }
  const char* backend_name() const { return core_->session.backend_name(); }
  size_t n_variants() const { return core_->session.n_variants(); }
  const std::vector<std::string>& variant_labels() const {
    return core_->session.variant_labels();
  }
  // The underlying session, e.g. for an occasional synchronous Run().
  const NvxSession& session() const { return core_->session; }

 private:
  // Blocks until outstanding == 0.
  void Drain();

  // Shared with in-flight tasks so completions outlast even a destroyed
  // session object (the destructor additionally drains, keeping the
  // accounting simple for callers).
  struct Core {
    explicit Core(NvxSession s) : session(std::move(s)) {}
    NvxSession session;
    mutable std::mutex mu;
    std::condition_variable idle_cv;
    size_t outstanding = 0;
  };

  std::shared_ptr<Core> core_;
  std::shared_ptr<support::ThreadPool> pool_;
};

}  // namespace api
}  // namespace bunshin

#endif  // BUNSHIN_SRC_API_ASYNC_H_
