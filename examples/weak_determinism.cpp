// Multithreading scenario, in two acts.
//
// Act 1 — the session view: a multithreaded SPLASH-2x workload synchronized
// through the unified API; the RunReport's telemetry shows how many lock
// acquisitions the weak-determinism runtime replayed to keep the variants'
// syscall streams comparable (§3.3).
//
// Act 2 — the mechanism itself, with real threads: the leader's threads race
// over mutexes; whatever acquisition order the OS happens to produce, both
// followers replay it exactly (Kendo-style synccall).
//
//   $ ./build/examples/weak_determinism
#include <cstdio>
#include <thread>
#include <vector>

#include "src/api/nvx.h"
#include "src/nxe/weakdet.h"

using namespace bunshin;

static int RunSessionAct() {
  const auto& bench = workload::Splash2x()[0];
  auto session = api::NvxBuilder()
                     .Benchmark(bench)
                     .Variants(3)
                     .Lockstep(nxe::LockstepMode::kStrict)
                     .Seed(7)
                     .Build();
  if (!session.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", session.status().ToString().c_str());
    return 1;
  }
  auto report = session->Run();
  if (!report.ok() || report->outcome != api::NvxOutcome::kOk) {
    std::fprintf(stderr, "session run failed\n");
    return 1;
  }
  std::printf("%s under a 3-variant session (%zu threads each):\n", bench.name.c_str(),
              bench.threads);
  std::printf("  lock acquisitions replayed in leader order: %llu\n",
              static_cast<unsigned long long>(report->lock_acquisitions));
  std::printf("  lockstep barriers: %llu, synced syscalls: %llu\n\n",
              static_cast<unsigned long long>(report->lockstep_barriers),
              static_cast<unsigned long long>(report->synced_syscalls));
  return 0;
}

int main() {
  if (RunSessionAct() != 0) {
    return 1;
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 5;
  nxe::SynccallRuntime runtime(/*n_followers=*/2);

  // Leader: 4 threads race; each lock acquisition appends its EGID.
  std::vector<std::thread> leader;
  for (size_t t = 0; t < kThreads; ++t) {
    leader.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        runtime.LeaderAcquire(static_cast<uint32_t>(t));
      }
    });
  }
  for (auto& th : leader) {
    th.join();
  }

  const auto order = runtime.Order();
  std::printf("leader produced a %zu-entry lock order: ", order.size());
  for (uint32_t egid : order) {
    std::printf("%u", egid);
  }
  std::printf("\n");

  // Followers: same 4 threads, no knowledge of the interleaving — the
  // synccall runtime forces them into the leader's order.
  for (size_t f = 0; f < 2; ++f) {
    std::vector<uint32_t> replayed;
    std::mutex mu;
    std::vector<std::thread> follower;
    for (size_t t = 0; t < kThreads; ++t) {
      follower.emplace_back([&, t] {
        for (size_t r = 0; r < kRounds; ++r) {
          // Hold the turn until this thread's step is recorded.
          const nxe::SynccallRuntime::Turn turn =
              runtime.FollowerAcquire(f, static_cast<uint32_t>(t));
          std::lock_guard<std::mutex> lock(mu);
          replayed.push_back(static_cast<uint32_t>(t));
        }
      });
    }
    for (auto& th : follower) {
      th.join();
    }
    std::printf("follower %zu replayed:                  ", f);
    for (uint32_t egid : replayed) {
      std::printf("%u", egid);
    }
    std::printf("  %s\n", replayed == order ? "(identical)" : "(DIVERGED!)");
    if (replayed != order) {
      return 1;
    }
  }
  return 0;
}
