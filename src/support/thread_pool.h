// A fixed-size worker pool with one FIFO task queue.
//
// This is the execution substrate of the async session layer (src/api/async)
// and the shard dispatcher (src/api/shard): one pool serves many sessions,
// so a server keeps a bounded number of synchronization workers no matter
// how many requests are in flight. Tasks start in submission order as
// workers free up. Tasks submitted before destruction are always drained —
// the destructor joins only after the queue is empty, so completions are
// never silently dropped. Blocking rules for tasks that dispatch onto their
// own pool are documented in docs/concurrency.md (the nested-dispatch sizing
// rule).
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
  // n_workers == 0 picks the hardware concurrency (at least 1). The resolved
  // size is then clamped to at least min_workers — sharded sessions pass 2
  // (the nested-dispatch sizing rule, docs/concurrency.md).
  explicit ThreadPool(size_t n_workers, size_t min_workers = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t n_workers() const { return workers_.size(); }

  // Enqueues a task. Tasks must not block on work that can only run on this
  // same pool.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and every worker is idle.
  void WaitIdle();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks / shutdown
  std::condition_variable idle_cv_;  // WaitIdle waits for quiescence
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;      // tasks currently executing
  bool stopping_ = false;  // destructor ran; drain the queue and exit
  std::vector<std::thread> workers_;
};

}  // namespace support
}  // namespace bunshin

#endif  // BUNSHIN_SRC_SUPPORT_THREAD_POOL_H_
