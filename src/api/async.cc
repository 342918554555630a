#include "src/api/async.h"

#include <cassert>

namespace bunshin {
namespace api {

// ---------------------------------------------------------------------------
// AsyncBackend
// ---------------------------------------------------------------------------

StatusOr<RunReport> AsyncBackend::Run(const RunRequest& request) const {
  // The same one-shot future RunHandle wraps, awaited inline. Shared, not
  // stack-captured: keeping the state alive from the task itself makes its
  // independence from this frame explicit.
  auto state = std::make_shared<RunHandle::State>();
  const Backend* inner = inner_.get();
  pool_->Submit([inner, request, state] {
    StatusOr<RunReport> report = inner->Run(request);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.emplace(std::move(report));
    }
    state->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->result.has_value(); });
  return std::move(*state->result);
}

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

std::optional<CompletionEvent> CompletionQueue::TryNext() {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.empty()) {
    return std::nullopt;
  }
  CompletionEvent event = std::move(events_.front());
  events_.pop_front();
  return event;
}

size_t CompletionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void CompletionQueue::Push(CompletionEvent event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(event));
  }
  cv_.notify_one();
}

// ---------------------------------------------------------------------------
// RunHandle
// ---------------------------------------------------------------------------

bool RunHandle::done() const {
  if (state_ == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->result.has_value();
}

StatusOr<RunReport> RunHandle::Wait() const {
  if (state_ == nullptr) {
    return FailedPrecondition("Wait() on an invalid RunHandle");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->result.has_value(); });
  return *state_->result;
}

std::optional<StatusOr<RunReport>> RunHandle::TryGet() const {
  if (state_ == nullptr) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->result.has_value()) {
    return std::nullopt;
  }
  return *state_->result;
}

// ---------------------------------------------------------------------------
// AsyncNvxSession
// ---------------------------------------------------------------------------

AsyncNvxSession::AsyncNvxSession(NvxSession session, std::shared_ptr<support::ThreadPool> pool)
    : core_(std::make_shared<Core>(std::move(session))), pool_(std::move(pool)) {}

AsyncNvxSession::~AsyncNvxSession() { Drain(); }

AsyncNvxSession& AsyncNvxSession::operator=(AsyncNvxSession&& other) noexcept {
  if (this != &other) {
    Drain();  // the replaced session's runs must finish delivering first
    core_ = std::move(other.core_);
    pool_ = std::move(other.pool_);
  }
  return *this;
}

void AsyncNvxSession::Drain() {
  if (core_ == nullptr) {
    return;  // moved-from
  }
  std::unique_lock<std::mutex> lock(core_->mu);
  core_->idle_cv.wait(lock, [this] { return core_->outstanding == 0; });
}

RunHandle AsyncNvxSession::Submit(RunRequest request) {
  return Submit(std::move(request), nullptr, 0);
}

RunHandle AsyncNvxSession::Submit(RunRequest request, CompletionQueue* completions,
                                  uint64_t token) {
  RunHandle handle;
  handle.state_ = std::make_shared<RunHandle::State>();
  handle.state_->token = token;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    ++core_->outstanding;
  }
  if (completions != nullptr) {
    // Registered for the whole submit->push window: a queue destroyed with
    // producers registered asserts in debug builds (declaration-order bug).
    completions->AddProducer();
  }

  std::shared_ptr<Core> core = core_;
  std::shared_ptr<RunHandle::State> state = handle.state_;
  pool_->Submit([core, state, completions, token, request = std::move(request)] {
    // Observer callbacks fire inside Run(), serialized by the session.
    StatusOr<RunReport> report = core->session.Run(request);
    // Ordering matters: the queue delivery and the outstanding decrement
    // come before the handle is fulfilled, so (a) the session destructor
    // never returns while a caller's queue is still being pushed to, and
    // (b) once Wait() returns, outstanding() has already dropped.
    if (completions != nullptr) {
      completions->Push(CompletionEvent{token, report});
      completions->RemoveProducer();
    }
    {
      std::lock_guard<std::mutex> lock(core->mu);
      --core->outstanding;
    }
    core->idle_cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.emplace(std::move(report));
    }
    state->cv.notify_all();
  });
  return handle;
}

size_t AsyncNvxSession::outstanding() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  return core_->outstanding;
}

}  // namespace api
}  // namespace bunshin
