#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/workload/tracegen.h"

namespace perfbench {

namespace api = bunshin::api;
namespace san = bunshin::san;
namespace workload = bunshin::workload;

const std::vector<workload::BenchmarkSpec>& Programs() {
  static const std::vector<workload::BenchmarkSpec> programs = [] {
    std::vector<workload::BenchmarkSpec> all = workload::Spec2006();
    const auto& splash = workload::Splash2x();
    all.insert(all.end(), splash.begin(), splash.end());
    const std::vector<workload::BenchmarkSpec> parsec = workload::ParsecSupported();
    all.insert(all.end(), parsec.begin(), parsec.end());
    return all;
  }();
  return programs;
}

const char* AttackName(Attack attack) {
  switch (attack) {
    case Attack::kNone:
      return "clean";
    case Attack::kDetect:
      return "detect";
    case Attack::kDiverge:
      return "diverge";
  }
  return "?";
}

Overlay ResolveOverlay(const Config& config, size_t plan_width) {
  static const char* const kDetectors[] = {"__asan_report_store", "__asan_report_load",
                                           "__ubsan_handle_add_overflow"};
  Overlay overlay;
  overlay.attack = config.attack;
  overlay.variant = plan_width == 0 ? 0 : static_cast<size_t>(config.attack_draw % plan_width);
  if (config.attack == Attack::kDiverge && plan_width > 1) {
    // A tampered leader is blamed on whichever follower disagrees first,
    // which depends on the shard grouping; a tampered follower is not.
    overlay.variant = 1 + static_cast<size_t>(config.attack_draw % (plan_width - 1));
  }
  if (config.attack == Attack::kDetect) {
    overlay.text = kDetectors[(config.attack_draw >> 20) % 3];
  } else if (config.attack == Attack::kDiverge) {
    overlay.text = "exfil-" + std::to_string((config.attack_draw >> 20) % 1000);
  }
  return overlay;
}

api::NvxBuilder BaseBuilder(const Config& config) {
  api::NvxBuilder builder;
  builder.Benchmark(Programs()[config.program]).Variants(config.n).Lockstep(config.lockstep);
  switch (config.strategy) {
    case Strategy::kClones:
      break;
    case Strategy::kCheckAsan:
      builder.DistributeChecks(san::SanitizerId::kASan);
      break;
    case Strategy::kSanitizers:
      builder.DistributeSanitizers(
          {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
      break;
    case Strategy::kUbsanSub:
      builder.DistributeUbsanSubSanitizers();
      break;
  }
  return builder;
}

void ApplyOverlay(const Overlay& overlay, api::NvxBuilder* builder) {
  if (overlay.attack == Attack::kDetect) {
    builder->InjectDetection(overlay.variant, overlay.text);
  } else if (overlay.attack == Attack::kDiverge) {
    builder->InjectDivergence(overlay.variant, overlay.text);
  }
}

const std::vector<WorkloadSpec>& WorkloadSpecs() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "fresh_local", .n_configs = 152},
      {.name = "replay_sharded", .n_configs = 152, .fixed_n = 8, .shards = 4, .replay = true},
      {.name = "remote_tcp",
       .open_loop = true,
       .n_configs = 96,
       .shards = 2,
       .remote = true,
       .zipf_s = 0.6,
       .rate_per_s = 250.0,
       .daemons = 2},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : WorkloadSpecs()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

namespace {

template <typename T>
void Shuffle(std::vector<T>* values, Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->Below(i)]);
  }
}

// `k` slots dealt evenly over `levels` values, in seeded order.
std::vector<size_t> Balanced(size_t k, size_t levels, Rng* rng) {
  std::vector<size_t> slots(k);
  for (size_t i = 0; i < k; ++i) {
    slots[i] = i % levels;
  }
  Shuffle(&slots, rng);
  return slots;
}

// Relative cost of one session of `config`: trace actions of the program
// times the traces a session builds (its variants plus the baseline).
double CostProxy(const Config& config) {
  // Trace actions of one variant of the program at a fixed seed, memoized.
  static const std::vector<double> actions = [] {
    std::vector<double> out;
    for (const workload::BenchmarkSpec& spec : Programs()) {
      out.push_back(static_cast<double>(
          workload::BuildTrace(spec, workload::VariantSpec{}, 1).TotalActions()));
    }
    return out;
  }();
  const workload::BenchmarkSpec& program = Programs()[config.program];
  size_t width = config.n;
  if (config.strategy == Strategy::kSanitizers) {
    width = std::min<size_t>(width, program.overheads.msan_supported ? 3 : 2);
  }
  return actions[config.program] * static_cast<double>(width + 1);
}

}  // namespace

std::vector<Config> DrawConfigs(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(MixSeed(seed, 1));
  const size_t k = spec.n_configs;
  const size_t n_programs = Programs().size();

  // Whole seeded permutations of the catalog (rounds), so each program
  // appears floor(k/38) or ceil(k/38) times.
  std::vector<size_t> programs;
  while (programs.size() < k) {
    std::vector<size_t> perm(n_programs);
    for (size_t i = 0; i < perm.size(); ++i) {
      perm[i] = i;
    }
    Shuffle(&perm, &rng);
    programs.insert(programs.end(), perm.begin(), perm.end());
  }
  programs.resize(k);

  // Per-program offsets dealt evenly over the first round: a program's r-th
  // config takes strategy (r + s) % 4 and lockstep (r + l) % 2, and its
  // first three configs take the widths 2, 4 and 8 once each, in seeded
  // order. Sanitizer distribution always takes width 2, because it plans at
  // most three variants whatever n asks for; that keeps every program's
  // cost mix, and so the whole set's, nearly the same from seed to seed.
  const size_t first_round = std::min(k, n_programs);
  const std::vector<size_t> strategy_slots = Balanced(first_round, 4, &rng);
  const std::vector<size_t> mode_slots = Balanced(first_round, 2, &rng);
  std::vector<size_t> strategy_off(n_programs, 0);
  std::vector<size_t> mode_off(n_programs, 0);
  std::vector<std::vector<size_t>> width_order(n_programs);
  for (size_t i = 0; i < first_round; ++i) {
    const size_t p = programs[i];
    strategy_off[p] = strategy_slots[i];
    mode_off[p] = mode_slots[i];
    std::vector<size_t> widths = {2, 4, 8};
    Shuffle(&widths, &rng);
    // The round that runs sanitizer distribution (if any of the first
    // three does) gets width 2.
    for (size_t r = 0; r < 3; ++r) {
      if ((r + strategy_off[p]) % 4 == static_cast<size_t>(Strategy::kSanitizers)) {
        std::swap(widths[r], *std::find(widths.begin(), widths.end(), 2));
      }
    }
    width_order[p] = widths;
  }

  // About 10% detection and 5% divergence overlays, at seeded positions.
  std::vector<Attack> attacks(k, Attack::kNone);
  const size_t n_detect = static_cast<size_t>(std::lround(0.10 * static_cast<double>(k)));
  const size_t n_diverge = static_cast<size_t>(std::lround(0.05 * static_cast<double>(k)));
  for (size_t i = 0; i < n_detect + n_diverge && i < k; ++i) {
    attacks[i] = i < n_detect ? Attack::kDetect : Attack::kDiverge;
  }
  Shuffle(&attacks, &rng);

  std::vector<Config> configs(k);
  for (size_t i = 0; i < k; ++i) {
    Config& c = configs[i];
    const size_t p = programs[i];
    const size_t round = i / n_programs;
    c.program = p;
    c.strategy = static_cast<Strategy>((round + strategy_off[p]) % 4);
    if (spec.fixed_n != 0) {
      c.n = spec.fixed_n;
    } else if (round < 3) {
      c.n = width_order[p][round];
    } else {
      c.n = c.strategy == Strategy::kSanitizers ? 2 : 4;
    }
    c.lockstep = (round + mode_off[p]) % 2 == 0 ? bunshin::nxe::LockstepMode::kStrict
                                                 : bunshin::nxe::LockstepMode::kSelective;
    c.attack = attacks[i];
    c.attack_draw = rng.Next();
    c.replay_seed = rng.Next();
  }
  return configs;
}

RequestStream::RequestStream(const WorkloadSpec& spec, const std::vector<Config>& configs,
                             uint64_t seed)
    : spec_(spec), configs_(configs), rng_(MixSeed(seed, 2)) {
  if (spec.zipf_s > 0.0) {
    // Popularity ranks are dealt round-robin over cost tiers, hottest ranks
    // to the middle tiers first, each tier in seeded order: the popular
    // head then spans cheap and expensive configs alike for every seed, so
    // the traffic's cost mix does not hinge on which config drew rank 1.
    std::vector<size_t> by_cost(configs.size());
    for (size_t i = 0; i < by_cost.size(); ++i) {
      by_cost[i] = i;
    }
    std::stable_sort(by_cost.begin(), by_cost.end(), [&](size_t a, size_t b) {
      return CostProxy(configs[a]) < CostProxy(configs[b]);
    });
    const size_t n_tiers = std::min<size_t>(12, configs.size());
    std::vector<std::vector<size_t>> tiers(n_tiers);
    for (size_t i = 0; i < by_cost.size(); ++i) {
      tiers[i * n_tiers / by_cost.size()].push_back(by_cost[i]);
    }
    Rng rank_rng(MixSeed(seed, 3));
    for (auto& tier : tiers) {
      Shuffle(&tier, &rank_rng);
    }
    std::vector<size_t> tier_order;  // middle-out: 5, 6, 4, 7, 3, ... for 12 tiers
    for (size_t step = 0; step < n_tiers; ++step) {
      const size_t mid = (n_tiers - 1) / 2;
      tier_order.push_back(step % 2 == 0 ? mid - step / 2 : mid + (step + 1) / 2);
    }
    for (size_t depth = 0; rank_to_config_.size() < configs.size(); ++depth) {
      for (size_t t : tier_order) {
        if (depth < tiers[t].size()) {
          rank_to_config_.push_back(tiers[t][depth]);
        }
      }
    }
    double total = 0.0;
    for (size_t rank = 1; rank <= configs.size(); ++rank) {
      total += std::pow(static_cast<double>(rank), -spec.zipf_s);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) {
      c /= total;
    }
  }
}

size_t RequestStream::PickConfig() {
  if (zipf_cdf_.empty()) {
    return rng_.Below(configs_.size());
  }
  const double u = rng_.Uniform();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
  return rank_to_config_[std::min(rank, rank_to_config_.size() - 1)];
}

Request RequestStream::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  Request request;
  request.index = next_index_++;
  request.config = PickConfig();
  request.workload_seed = spec_.replay ? configs_[request.config].replay_seed : rng_.Next();
  if (spec_.open_loop) {
    clock_s_ += -std::log(1.0 - rng_.Uniform()) / spec_.rate_per_s;
    request.due_s = clock_s_;
  }
  return request;
}

std::string CheckVerdict(const Overlay& overlay, const api::RunReport& report) {
  const std::string got = api::NvxOutcomeName(report.outcome);
  switch (overlay.attack) {
    case Attack::kNone:
      return report.outcome == api::NvxOutcome::kOk ? "" : "clean config reported " + got;
    case Attack::kDetect:
      if (report.outcome != api::NvxOutcome::kDetected || !report.detection.has_value()) {
        return "detection config reported " + got;
      }
      if (report.detection->variant != overlay.variant ||
          report.detection->detector != overlay.text) {
        return "detection attributed to variant " + std::to_string(report.detection->variant) +
               " by " + report.detection->detector + ", injected in variant " +
               std::to_string(overlay.variant) + " as " + overlay.text;
      }
      return "";
    case Attack::kDiverge:
      return report.outcome == api::NvxOutcome::kDiverged ? ""
                                                          : "divergence config reported " + got;
  }
  return "unknown attack";
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string CompareReports(const api::RunReport& a, const api::RunReport& b, Fields fields) {
  if (a.backend != b.backend) return "backend";
  if (a.outcome != b.outcome) return "outcome";
  if (a.detection.has_value() != b.detection.has_value()) return "detection";
  if (a.detection.has_value() &&
      (a.detection->variant != b.detection->variant || a.detection->thread != b.detection->thread ||
       a.detection->detector != b.detection->detector)) {
    return "detection";
  }
  if (a.divergence.has_value() != b.divergence.has_value()) return "divergence";
  if (a.divergence.has_value()) {
    const api::Divergence& x = *a.divergence;
    const api::Divergence& y = *b.divergence;
    if (x.variant != y.variant || x.thread != y.thread || x.sync_index != y.sync_index ||
        x.expected != y.expected || x.actual != y.actual || x.detail != y.detail) {
      return "divergence";
    }
  }
  if (a.aborted_all != b.aborted_all) return "aborted_all";
  if (a.return_value != b.return_value) return "return_value";
  if (a.baseline_time.has_value() != b.baseline_time.has_value() ||
      (a.baseline_time.has_value() && !SameBits(*a.baseline_time, *b.baseline_time))) {
    return "baseline_time";
  }
  if (!SameBits(a.variant_compute_scale, b.variant_compute_scale)) return "variant_compute_scale";
  if (fields == Fields::kShardInvariant) return "";
  if (!SameBits(a.total_time, b.total_time)) return "total_time";
  if (!SameBits(a.variant_finish_time, b.variant_finish_time)) return "variant_finish_time";
  if (!SameBits(a.variant_standalone_time, b.variant_standalone_time)) {
    return "variant_standalone_time";
  }
  if (a.synced_syscalls != b.synced_syscalls) return "synced_syscalls";
  if (a.ignored_syscalls != b.ignored_syscalls) return "ignored_syscalls";
  if (a.lockstep_barriers != b.lockstep_barriers) return "lockstep_barriers";
  if (a.lock_acquisitions != b.lock_acquisitions) return "lock_acquisitions";
  if (!SameBits(a.avg_syscall_gap, b.avg_syscall_gap)) return "avg_syscall_gap";
  if (a.max_syscall_gap != b.max_syscall_gap) return "max_syscall_gap";
  return "";
}

}  // namespace perfbench
