// Asynchronous session execution over a worker pool.
//
// The synchronous NvxSession blocks its caller for a whole synchronization
// run — unusable inside a server that must keep accepting requests while
// sessions synchronize (the monitor deployment of PAPER.md §3.3/§4.2). This
// layer runs sessions on support::ThreadPool workers and hands each result
// back through a CompletionQueue: a queue many sessions can share, which
// delivers finished runs as CompletionEvents (tagged with a caller token) in
// completion order, so one dispatcher thread can drain an entire fleet.
//
//   auto pool = std::make_shared<support::ThreadPool>(8);
//   auto session = api::NvxBuilder().Benchmark(b).Variants(3).BuildAsync(pool);
//   api::CompletionQueue done;
//   for (uint64_t id = 0; id < 100; ++id) {
//     session->Submit({}, done, /*token=*/id);
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
#include <utility>

#include "src/api/nvx.h"
#include "src/support/thread_pool.h"

namespace bunshin {
namespace api {

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
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<CompletionEvent> events_;
  std::atomic<size_t> producers_{0};
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

  // Schedules one run on the pool and returns immediately. Once the run (and
  // its observer callbacks) finished, `completions` receives one
  // CompletionEvent tagged with `token`; the queue must outlive the run.
  void Submit(RunRequest request, CompletionQueue& completions, uint64_t token);

 private:
  // Shared with in-flight tasks so completions outlast even a destroyed
  // session object (the destructor additionally drains, keeping the
  // accounting simple for callers).
  struct Core {
    explicit Core(NvxSession s) : session(std::move(s)) {}
    NvxSession session;
    std::mutex mu;
    std::condition_variable idle_cv;
    size_t outstanding = 0;
  };

  std::shared_ptr<Core> core_;
  std::shared_ptr<support::ThreadPool> pool_;
};

}  // namespace api
}  // namespace bunshin

#endif  // BUNSHIN_SRC_API_ASYNC_H_
