// Lock-free ring buffers shaped like the leader/follower sync buffer of the
// paper's Figure 2.
//
// SpscRing is a classic single-producer/single-consumer bounded queue.
// BroadcastRing is what Figure 2 describes: one leader publishes syscall
// "sync slots"; each of N followers consumes the stream at its own pace; the
// leader stalls only when the buffer is full, i.e. when it is a full lap
// ahead of the *slowest* follower. In strict-lockstep mode the engine simply
// keeps capacity-1 outstanding entries per step; in selective-lockstep mode
// the leader runs ahead up to the ring capacity.
//
// The engine (src/nxe) models that buffer in virtual time and does not use
// these; bench/micro_components and the std::thread stress tests in
// tests/ringbuf_test do.
#ifndef BUNSHIN_SRC_RINGBUF_RINGBUF_H_
#define BUNSHIN_SRC_RINGBUF_RINGBUF_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace bunshin {
namespace ringbuf {

inline constexpr size_t kDefaultCapacity = 256;

inline bool IsPowerOfTwo(size_t x) { return x != 0 && (x & (x - 1)) == 0; }

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity = kDefaultCapacity)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity) {
    assert(IsPowerOfTwo(capacity));
  }

  // Non-blocking; returns false when full.
  bool TryPush(const T& value) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= capacity_) {
      return false;
    }
    slots_[head & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Non-blocking; returns false when empty.
  bool TryPop(T* out) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) {
      return false;
    }
    *out = slots_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Blocking variants (spin, then yield).
  void Push(const T& value) {
    int spins = 0;
    while (!TryPush(value)) {
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
  }
  T Pop() {
    T out{};
    int spins = 0;
    while (!TryPop(&out)) {
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
    return out;
  }

  size_t Size() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<size_t>(head - tail);
  }
  size_t capacity() const { return capacity_; }
  bool Empty() const { return Size() == 0; }

 private:
  const size_t capacity_;
  const size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

template <typename T>
class BroadcastRing {
 public:
  BroadcastRing(size_t capacity, size_t num_consumers)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity), tails_(num_consumers) {
    assert(IsPowerOfTwo(capacity));
    for (auto& tail : tails_) {
      tail.value.store(0, std::memory_order_relaxed);
    }
  }

  size_t num_consumers() const { return tails_.size(); }
  size_t capacity() const { return capacity_; }

  // Producer side. Returns false when the slowest consumer is a full lap
  // behind (ring full).
  bool TryPublish(const T& value) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - MinTail() >= capacity_) {
      return false;
    }
    slots_[head & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  void Publish(const T& value) {
    int spins = 0;
    while (!TryPublish(value)) {
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
  }

  // Consumer side. Returns false when consumer `c` has no unread entries.
  bool TryConsume(size_t c, T* out) {
    auto& tail = tails_[c].value;
    const uint64_t t = tail.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (t == head) {
      return false;
    }
    *out = slots_[t & mask_];
    tail.store(t + 1, std::memory_order_release);
    return true;
  }

  T Consume(size_t c) {
    T out{};
    int spins = 0;
    while (!TryConsume(c, &out)) {
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
    return out;
  }

  // Entries consumer `c` still has to read.
  size_t Backlog(size_t c) const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t t = tails_[c].value.load(std::memory_order_acquire);
    return static_cast<size_t>(head - t);
  }

  // How far the producer is ahead of the slowest consumer — the "syscall
  // distance" attack-window metric of §5.3.
  size_t MaxBacklog() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(head - MinTail());
  }

  uint64_t published() const { return head_.load(std::memory_order_acquire); }

 private:
  uint64_t MinTail() const {
    uint64_t min_tail = UINT64_MAX;
    for (const auto& tail : tails_) {
      const uint64_t t = tail.value.load(std::memory_order_acquire);
      if (t < min_tail) {
        min_tail = t;
      }
    }
    return min_tail;
  }

  struct alignas(64) PaddedAtomic {
    std::atomic<uint64_t> value{0};
  };

  const size_t capacity_;
  const size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<uint64_t> head_{0};
  std::vector<PaddedAtomic> tails_;
};

}  // namespace ringbuf
}  // namespace bunshin

#endif  // BUNSHIN_SRC_RINGBUF_RINGBUF_H_
