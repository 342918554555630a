#include "src/api/async.h"

#include <cassert>

namespace bunshin {
namespace api {

// ---------------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------------

CompletionQueue::~CompletionQueue() {
  // A registered producer means a session/executor still intends to Push
  // here; destroying the queue now is a use-after-free waiting for the run
  // to finish. Loud in debug builds, where the declaration-order bug is
  // cheap to find (see docs/concurrency.md, "Queue lifetime").
  assert(registered_producers() == 0 &&
         "CompletionQueue destroyed with registered producers still pending");
}

CompletionEvent CompletionQueue::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !events_.empty(); });
  CompletionEvent event = std::move(events_.front());
  events_.pop_front();
  return event;
}

void CompletionQueue::Push(CompletionEvent event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(event));
  }
  cv_.notify_one();
}

// ---------------------------------------------------------------------------
// AsyncNvxSession
// ---------------------------------------------------------------------------

AsyncNvxSession::AsyncNvxSession(NvxSession session, std::shared_ptr<support::ThreadPool> pool)
    : core_(std::make_shared<Core>(std::move(session))), pool_(std::move(pool)) {}

AsyncNvxSession::~AsyncNvxSession() {
  if (core_ == nullptr) {
    return;  // moved-from
  }
  std::unique_lock<std::mutex> lock(core_->mu);
  core_->idle_cv.wait(lock, [this] { return core_->outstanding == 0; });
}

void AsyncNvxSession::Submit(RunRequest request, CompletionQueue& completions, uint64_t token) {
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    ++core_->outstanding;
  }
  // Registered for the whole submit->push window: a queue destroyed with
  // producers registered asserts in debug builds (declaration-order bug).
  completions.AddProducer();

  pool_->Submit([core = core_, queue = &completions, token, request = std::move(request)] {
    // Observer callbacks fire inside Run(), serialized by the session.
    StatusOr<RunReport> report = core->session.Run(request);
    // The delivery comes before the outstanding decrement, so the session
    // destructor never returns while a caller's queue is still being pushed
    // to.
    queue->Push(CompletionEvent{token, std::move(report)});
    queue->RemoveProducer();
    {
      std::lock_guard<std::mutex> lock(core->mu);
      --core->outstanding;
    }
    core->idle_cv.notify_all();
  });
}

}  // namespace api
}  // namespace bunshin
