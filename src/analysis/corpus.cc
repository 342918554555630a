#include "src/analysis/corpus.h"

namespace bunshin {
namespace analysis {

sc::SyscallRecord RandomRecord(std::mt19937_64& rng, bool io_write) {
  static const sc::Sysno kPlain[] = {sc::Sysno::kRead,  sc::Sysno::kFstat,
                                     sc::Sysno::kGetpid, sc::Sysno::kRecv,
                                     sc::Sysno::kLseek,  sc::Sysno::kClockGettime};
  static const sc::Sysno kIo[] = {sc::Sysno::kWrite, sc::Sysno::kSend, sc::Sysno::kUnlink};
  sc::SyscallRecord rec;
  rec.no = io_write ? kIo[rng() % 3] : kPlain[rng() % 6];
  rec.args = {static_cast<int64_t>(rng() % 64), static_cast<int64_t>(rng() % 4096), 0, 0, 0, 0};
  rec.payload_digest = io_write ? rng() : 0;
  return rec;
}

sc::SyscallRecord IgnoredRecord(std::mt19937_64& rng) {
  sc::SyscallRecord rec;
  rec.no = (rng() % 2 == 0) ? sc::Sysno::kMmap : sc::Sysno::kBrk;
  rec.args = {0, static_cast<int64_t>(4096 * (1 + rng() % 8)), 0, 0, 0, 0};
  return rec;
}

RandomCase GenerateCase(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uniform_real_distribution<double> cost_dist(0.5, 25.0);
  std::uniform_real_distribution<double> scale_dist(1.0, 2.2);
  std::uniform_real_distribution<double> jitter_dist(0.85, 1.2);

  RandomCase c;
  const size_t kThreadChoices[] = {1, 1, 2, 4};
  const size_t kVariantChoices[] = {1, 2, 2, 3, 5, 8};
  const size_t kRingChoices[] = {1, 2, 3, 8, 64};
  const size_t n_threads = kThreadChoices[rng() % 4];
  const size_t n_variants = kVariantChoices[rng() % 6];
  const size_t barriers = rng() % 4;

  c.config.mode = (rng() % 2 == 0) ? nxe::LockstepMode::kStrict : nxe::LockstepMode::kSelective;
  c.config.ring_capacity = kRingChoices[rng() % 5];
  c.config.cost.cores = (rng() % 3 == 0) ? 1 : ((rng() % 2 == 0) ? 4 : 12);
  if (rng() % 4 == 0) {
    c.config.cost.wait_wakeup = 10.0;
  }
  if (rng() % 5 == 0) {
    c.config.cost.result_fetch = 0.0;  // exercises publish/consume time ties
  }
  if (rng() % 4 == 0) {
    c.config.contention_variants = n_variants + 3;
  }

  // Leader template: per-episode action soup, barrier-aligned across threads.
  std::vector<nxe::ThreadTrace> tmpl(n_threads);
  uint32_t lock_id = 0;
  for (size_t e = 0; e <= barriers; ++e) {
    for (size_t t = 0; t < n_threads; ++t) {
      const size_t n_actions = 3 + rng() % 10;
      for (size_t i = 0; i < n_actions; ++i) {
        switch (rng() % 10) {
          case 0:
          case 1:
          case 2:
          case 3:
            tmpl[t].Append(nxe::ThreadAction::Compute(cost_dist(rng)));
            break;
          case 4:
          case 5:
          case 6:
            tmpl[t].AppendSyscall(RandomRecord(rng, false));
            break;
          case 7:
            tmpl[t].AppendSyscall(RandomRecord(rng, true));
            break;
          case 8:
            tmpl[t].AppendSyscall(IgnoredRecord(rng));
            break;
          case 9:
            tmpl[t].Append(nxe::ThreadAction::Lock(lock_id));
            tmpl[t].Append(nxe::ThreadAction::Compute(cost_dist(rng)));
            tmpl[t].Append(nxe::ThreadAction::Unlock(lock_id));
            lock_id = (lock_id + 1) % 4;
            break;
        }
      }
      if (e < barriers) {
        tmpl[t].Append(nxe::ThreadAction::Barrier(static_cast<uint32_t>(e)));
      }
    }
  }

  c.variants.resize(n_variants);
  for (size_t v = 0; v < n_variants; ++v) {
    nxe::VariantTrace& trace = c.variants[v];
    trace.name = "rand-v" + std::to_string(v);
    trace.compute_scale = (v == 0) ? 1.0 : scale_dist(rng);
    trace.threads.resize(n_threads);
    for (size_t t = 0; t < n_threads; ++t) {
      nxe::ThreadTrace& thread = trace.threads[t];
      thread = tmpl[t];
      for (auto& a : thread.actions) {
        if (a.kind == nxe::ActionKind::kCompute) {
          a.cost *= jitter_dist(rng);  // per-clone scheduling jitter
        }
      }
      // Sanitizer-introduced memory management, never compared (§3.3).
      const size_t extra_mm = rng() % 3;
      for (size_t i = 0; i < extra_mm; ++i) {
        const size_t pos = rng() % (thread.actions.size() + 1);
        thread.InsertSyscall(pos, IgnoredRecord(rng));
      }
      thread.Append(nxe::ThreadAction::Exit());
    }
    const size_t pre = rng() % 3;
    for (size_t i = 0; i < pre; ++i) {
      trace.pre_main.push_back(IgnoredRecord(rng));
    }
    const size_t post = rng() % 3;
    for (size_t i = 0; i < post; ++i) {
      trace.post_exit.push_back(IgnoredRecord(rng));
    }
  }

  // Injected incident, if any.
  auto random_thread_of = [&](size_t v) -> nxe::ThreadTrace& {
    return c.variants[v].threads[rng() % n_threads];
  };
  switch (rng() % 10) {
    case 0:
    case 1: {  // sanitizer detection fires mid-run (maybe in several variants)
      const size_t n_detects = 1 + rng() % 2;
      for (size_t i = 0; i < n_detects; ++i) {
        nxe::ThreadTrace& thread = random_thread_of(rng() % n_variants);
        thread.InsertDetect(rng() % thread.actions.size(), "__asan_report_store");
      }
      c.label = "detection";
      break;
    }
    case 2:
    case 3: {  // argument/payload divergence in a follower
      if (n_variants < 2) {
        c.label = "clean";
        break;
      }
      nxe::ThreadTrace& thread = random_thread_of(1 + rng() % (n_variants - 1));
      for (size_t i = 0; i < thread.actions.size(); ++i) {
        const nxe::ThreadAction& a = thread.actions[i];
        if (a.kind == nxe::ActionKind::kSyscall && sc::IsSyncRelevant(thread.RecordOf(a).no)) {
          sc::SyscallRecord mutant = thread.RecordOf(a);
          if (rng() % 2 == 0) {
            mutant.args[0] += 1;
          } else {
            mutant.payload_digest ^= 0x5bd1e995ULL;
          }
          thread.ReplaceRecord(i, mutant);
          c.label = "arg-divergence";
          break;
        }
      }
      break;
    }
    case 4: {  // sequence divergence: a follower thread exits early
      if (n_variants < 2) {
        c.label = "clean";
        break;
      }
      auto& actions = random_thread_of(1 + rng() % (n_variants - 1)).actions;
      const size_t cut = rng() % actions.size();
      actions.erase(actions.begin() + cut, actions.end());
      actions.push_back(nxe::ThreadAction::Exit());
      c.label = "sequence-divergence";
      break;
    }
    case 5: {  // malformed trace: one thread of one variant skips a barrier
      if (barriers == 0 || n_threads < 2) {
        c.label = "clean";
        break;
      }
      auto& actions = random_thread_of(rng() % n_variants).actions;
      for (auto it = actions.begin(); it != actions.end(); ++it) {
        if (it->kind == nxe::ActionKind::kBarrier) {
          actions.erase(it, actions.end());
          actions.push_back(nxe::ThreadAction::Exit());
          break;
        }
      }
      c.label = "malformed-barrier";
      break;
    }
    default:
      c.label = "clean";
      break;
  }
  return c;
}

}  // namespace analysis
}  // namespace bunshin
