// A fixed-size worker pool with one FIFO task queue.
//
// This is the execution substrate of the async session layer (src/api/async):
// one pool serves many sessions, so a server keeps a bounded number of
// synchronization workers no matter how many requests are in flight. Tasks
// start in submission order as workers free up. Tasks submitted before
// destruction are always drained — the destructor joins only after the
// queue is empty, so completions are never silently dropped.
#ifndef BUNSHIN_SRC_SUPPORT_THREAD_POOL_H_
#define BUNSHIN_SRC_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bunshin {
namespace support {

class ThreadPool {
 public:
  // n_workers == 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(size_t n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t n_workers() const { return workers_.size(); }

  // Enqueues a task. Tasks must not block on work that can only run on this
  // same pool.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks / shutdown
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;  // destructor ran; drain the queue and exit
  std::vector<std::thread> workers_;
};

}  // namespace support
}  // namespace bunshin

#endif  // BUNSHIN_SRC_SUPPORT_THREAD_POOL_H_
