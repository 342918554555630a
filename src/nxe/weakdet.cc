#include "src/nxe/weakdet.h"

namespace bunshin {
namespace nxe {

SynccallRuntime::SynccallRuntime(size_t n_followers)
    : cursor_(n_followers, 0), turn_held_(n_followers, 0) {}

void SynccallRuntime::LeaderAcquire(uint32_t egid) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(egid);
  }
  cv_.notify_all();
}

SynccallRuntime::Turn SynccallRuntime::FollowerAcquire(size_t follower, uint32_t egid) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return !turn_held_[follower] && cursor_[follower] < order_.size() &&
           order_[cursor_[follower]] == egid;
  });
  turn_held_[follower] = 1;
  return Turn(this, follower);
}

void SynccallRuntime::EndTurn(size_t follower) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    turn_held_[follower] = 0;
    ++cursor_[follower];
  }
  // Consuming an entry may make the next entry's owner runnable.
  cv_.notify_all();
}

std::vector<uint32_t> SynccallRuntime::Order() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_;
}

}  // namespace nxe
}  // namespace bunshin
