#include "src/support/thread_pool.h"

#include <algorithm>
#include <utility>

namespace bunshin {
namespace support {

ThreadPool::ThreadPool(size_t n_workers) {
  if (n_workers == 0) {
    n_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    task = nullptr;  // release captures before reporting idle
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace support
}  // namespace bunshin
