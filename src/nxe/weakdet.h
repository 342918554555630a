// Weak-determinism runtime (Bunshin §4.2 "Pthreads locking primitives").
//
// The real system hooks pthreads primitives via an LD_PRELOAD library and a
// `synccall` kernel hook (the unimplemented tuxcall): the leader atomically
// appends its execution-group id to a kernel-side order_list and wakes any
// follower threads waiting on that EGID; a follower checks whether the next
// order_list entry matches its EGID and sleeps on a variant-specific wait
// queue otherwise.
//
// This class is that protocol implemented with real std::thread primitives —
// it is used by the real-thread tests and examples (the discrete-event engine
// models the same protocol in virtual time).
#ifndef BUNSHIN_SRC_NXE_WEAKDET_H_
#define BUNSHIN_SRC_NXE_WEAKDET_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace bunshin {
namespace nxe {

class SynccallRuntime {
 public:
  // A follower thread's turn at the head of the recorded order. While it is
  // held no other thread of that follower can take the next entry; its
  // destruction advances the follower's replay cursor. Hold it across the
  // step the order protects — taking a lock, recording an event — or the
  // next EGID's thread can overtake that step.
  class [[nodiscard]] Turn {
   public:
    Turn(const Turn&) = delete;
    Turn& operator=(const Turn&) = delete;
    ~Turn() { runtime_->EndTurn(follower_); }

   private:
    friend class SynccallRuntime;
    Turn(SynccallRuntime* runtime, size_t follower) : runtime_(runtime), follower_(follower) {}

    SynccallRuntime* runtime_;
    size_t follower_;
  };

  // `n_followers` follower variants replay the leader's order.
  explicit SynccallRuntime(size_t n_followers);

  // Leader side: called while the leader holds the locking primitive, so the
  // total order is the order the acquisitions happened in. Appends `egid`
  // and wakes waiting followers.
  void LeaderAcquire(uint32_t egid);

  // Follower side: blocks until the next unconsumed order entry for
  // `follower` equals `egid` and no other thread of `follower` holds its
  // turn, then returns that turn.
  Turn FollowerAcquire(size_t follower, uint32_t egid);

  // Snapshot of the recorded total order.
  std::vector<uint32_t> Order() const;

 private:
  void EndTurn(size_t follower);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint32_t> order_;
  std::vector<size_t> cursor_;    // per-follower replay position
  std::vector<char> turn_held_;   // per-follower: a thread holds the entry at cursor_
};

// A mutex whose lock order is recorded (leader) or replayed (follower) via a
// shared SynccallRuntime — the patched pthread_mutex_lock of the paper. Any
// number of threads may contend for it; each passes its own EGID.
class DetMutex {
 public:
  explicit DetMutex(SynccallRuntime* runtime) : runtime_(runtime) {}

  // Takes the lock, then records the acquisition in the leader's order.
  void LockAsLeader(uint32_t egid) {
    mu_.lock();
    runtime_->LeaderAcquire(egid);
  }
  // Waits for `egid`'s turn in the leader's order, takes the lock, and only
  // then releases the turn: the next thread in the order cannot reach the
  // lock first.
  void LockAsFollower(size_t follower, uint32_t egid) {
    const SynccallRuntime::Turn turn = runtime_->FollowerAcquire(follower, egid);
    mu_.lock();
  }
  void Unlock() { mu_.unlock(); }

 private:
  SynccallRuntime* runtime_;
  std::mutex mu_;
};

}  // namespace nxe
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NXE_WEAKDET_H_
