// Real-thread tests for the weak-determinism (synccall) runtime: follower
// variants must observe the leader's lock-acquisition total order.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "src/nxe/weakdet.h"
#include "src/support/rng.h"

namespace bunshin {
namespace {

TEST(WeakDetTest, OrderRecordedByLeader) {
  nxe::SynccallRuntime runtime(1);
  runtime.LeaderAcquire(2);
  runtime.LeaderAcquire(0);
  runtime.LeaderAcquire(1);
  EXPECT_EQ(runtime.Order(), (std::vector<uint32_t>{2, 0, 1}));
}

// The core property (§3.3): whatever interleaving the leader's threads
// produce, every follower replays the same total order of acquisitions.
TEST(WeakDetTest, FollowersReplayLeaderOrder) {
  constexpr size_t kThreads = 4;
  constexpr size_t kAcquisitionsPerThread = 200;
  constexpr size_t kFollowers = 2;

  nxe::SynccallRuntime runtime(kFollowers);

  // Leader: each thread acquires with its own EGID many times, racing.
  {
    std::vector<std::thread> leader_threads;
    for (size_t t = 0; t < kThreads; ++t) {
      leader_threads.emplace_back([&, t] {
        Rng rng(t + 1);
        for (size_t i = 0; i < kAcquisitionsPerThread; ++i) {
          runtime.LeaderAcquire(static_cast<uint32_t>(t));
          // Unsynchronized busy work to shuffle the interleaving.
          volatile uint64_t x = rng.NextBounded(200);
          while (x > 0) {
            x = x - 1;
          }
        }
      });
    }
    for (auto& t : leader_threads) {
      t.join();
    }
  }
  const std::vector<uint32_t> order = runtime.Order();
  ASSERT_EQ(order.size(), kThreads * kAcquisitionsPerThread);

  // Followers: per-thread acquisition counts must be consumable exactly in
  // the recorded order. Each follower runs kThreads real threads that only
  // know "I am EGID t and I acquire N times".
  for (size_t f = 0; f < kFollowers; ++f) {
    std::vector<uint32_t> replayed;
    std::mutex replay_mu;
    std::vector<std::thread> follower_threads;
    for (size_t t = 0; t < kThreads; ++t) {
      follower_threads.emplace_back([&, t] {
        for (size_t i = 0; i < kAcquisitionsPerThread; ++i) {
          // The turn is held until the recording step is done (destroyed
          // after `lock`), so the next EGID cannot record ahead of this one.
          const nxe::SynccallRuntime::Turn turn =
              runtime.FollowerAcquire(f, static_cast<uint32_t>(t));
          std::lock_guard<std::mutex> lock(replay_mu);
          replayed.push_back(static_cast<uint32_t>(t));
        }
      });
    }
    for (auto& t : follower_threads) {
      t.join();
    }
    EXPECT_EQ(replayed, order) << "follower " << f << " diverged from leader order";
  }
}

TEST(WeakDetTest, DetMutexEnforcesLeaderOrderAcrossFollowerThreads) {
  nxe::SynccallRuntime runtime(1);
  nxe::DetMutex mu(&runtime);

  // Leader thread 1 takes the lock before leader thread 0.
  mu.LockAsLeader(1);
  mu.Unlock();
  mu.LockAsLeader(0);
  mu.Unlock();

  // Follower threads 0 and 1 race for the lock; the runtime must let 1 in
  // first regardless of scheduling. Each records inside its critical
  // section, which the DetMutex itself serializes.
  std::vector<int> sequence;
  auto follower = [&](uint32_t egid) {
    mu.LockAsFollower(0, egid);
    sequence.push_back(static_cast<int>(egid));
    mu.Unlock();
  };
  std::thread t0(follower, 0);
  std::thread t1(follower, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(sequence, (std::vector<int>{1, 0}));
}

// Contention: the leader's threads race for one DetMutex; each follower's
// threads must enter the critical section in exactly the leader's order.
// The follower takes the lock before giving up its turn, so the next EGID in
// the order cannot grab the mutex first.
TEST(WeakDetTest, ContendedDetMutexReplaysCriticalSectionOrder) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 200;
  constexpr size_t kFollowers = 2;

  nxe::SynccallRuntime runtime(kFollowers);
  nxe::DetMutex mu(&runtime);

  // Each run's critical sections append their EGID; `mu` itself protects the
  // vector, so its contents are the order the sections ran in.
  auto run = [&](auto lock) {
    std::vector<uint32_t> sections;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(t + 11);
        for (size_t r = 0; r < kRounds; ++r) {
          lock(static_cast<uint32_t>(t));
          sections.push_back(static_cast<uint32_t>(t));
          mu.Unlock();
          volatile uint64_t x = rng.NextBounded(100);
          while (x > 0) {
            x = x - 1;
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    return sections;
  };

  const std::vector<uint32_t> leader = run([&](uint32_t egid) { mu.LockAsLeader(egid); });
  ASSERT_EQ(leader.size(), kThreads * kRounds);
  // The leader records while holding the lock: its order is the real one.
  EXPECT_EQ(runtime.Order(), leader);
  for (size_t f = 0; f < kFollowers; ++f) {
    const std::vector<uint32_t> follower =
        run([&](uint32_t egid) { mu.LockAsFollower(f, egid); });
    EXPECT_EQ(follower, leader) << "follower " << f << " entered out of order";
  }
}

}  // namespace
}  // namespace bunshin
