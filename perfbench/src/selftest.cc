// The benchmark's own self-test (perfbench_driver --self-test): the
// percentile helper, the calibration kernel, seed determinism of every
// workload's inputs, and the verdict checker on a clean / detect / diverge
// trio of real sessions.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/support.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

namespace {

namespace api = bunshin::api;

int g_checks = 0;
int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
  }
}

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  const Percentile p50 = NearestRank(hundred, 0.50);
  Expect(p50.value == 50 && p50.samples == 100 && p50.beyond == 50, "p50 of 1..100");
  const Percentile p99 = NearestRank(hundred, 0.99);
  Expect(p99.value == 99 && p99.beyond == 1, "p99 of 1..100 leaves one sample beyond");
  Expect(NearestRank({7.0}, 0.99).value == 7.0, "a single sample is every percentile");

  // The ">= 10 samples beyond" rule: p99 is reportable from 1000 samples on.
  auto beyond_p99 = [](size_t n) {
    std::vector<double> samples(n);
    for (size_t i = 0; i < n; ++i) {
      samples[i] = static_cast<double>(i);
    }
    return NearestRank(samples, 0.99).beyond;
  };
  Expect(beyond_p99(1000) == kMinSamplesBeyond, "n=1000 leaves 10 beyond p99");
  Expect(beyond_p99(999) < kMinSamplesBeyond, "n=999 leaves 9 beyond p99");
  Expect(NearestRank(std::vector<double>(20, 1.0), 0.5).beyond == kMinSamplesBeyond,
         "n=20 leaves 10 beyond the median");

  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median, odd and even");
}

bool SameConfigs(const std::vector<Config>& a, const std::vector<Config>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].program != b[i].program || a[i].strategy != b[i].strategy || a[i].n != b[i].n ||
        a[i].lockstep != b[i].lockstep || a[i].attack != b[i].attack ||
        a[i].attack_draw != b[i].attack_draw || a[i].replay_seed != b[i].replay_seed) {
      return false;
    }
  }
  return true;
}

std::vector<Request> Draw(const WorkloadSpec& spec, const std::vector<Config>& configs,
                          uint64_t seed, size_t n) {
  RequestStream stream(spec, configs, seed);
  std::vector<Request> requests;
  for (size_t i = 0; i < n; ++i) {
    requests.push_back(stream.Next());
  }
  return requests;
}

bool SameRequests(const std::vector<Request>& a, const std::vector<Request>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].config != b[i].config ||
        a[i].workload_seed != b[i].workload_seed || a[i].due_s != b[i].due_s) {
      return false;
    }
  }
  return a.size() == b.size();
}

void TestDeterminism() {
  for (const WorkloadSpec& spec : WorkloadSpecs()) {
    const std::string name = spec.name;
    const std::vector<Config> a = DrawConfigs(spec, 11);
    const std::vector<Config> b = DrawConfigs(spec, 11);
    const std::vector<Config> c = DrawConfigs(spec, 12);
    Expect(a.size() == spec.n_configs, name + ": config count");
    Expect(SameConfigs(a, b), name + ": same seed, same configs");
    Expect(!SameConfigs(a, c), name + ": another seed, other configs");
    Expect(SameRequests(Draw(spec, a, 11, 2000), Draw(spec, b, 11, 2000)),
           name + ": same seed, same requests and arrival schedule");
    Expect(!SameRequests(Draw(spec, a, 11, 2000), Draw(spec, c, 12, 2000)),
           name + ": another seed, other requests");

    // Stratification: each program appears floor(k/38) or ceil(k/38)
    // times, one drawn three or more times runs every width, one drawn four
    // times runs every strategy, and the attack counts are the same for
    // every seed.
    auto stratified = [&](const std::vector<Config>& configs) {
      const size_t n_programs = Programs().size();
      std::vector<std::vector<size_t>> widths(n_programs);
      std::vector<std::vector<Strategy>> strategies(n_programs);
      size_t attacks = 0;
      for (const Config& config : configs) {
        widths[config.program].push_back(config.n);
        strategies[config.program].push_back(config.strategy);
        attacks += config.attack == Attack::kNone ? 0 : 1;
      }
      const size_t lo = configs.size() / n_programs;
      const double k = static_cast<double>(configs.size());
      bool ok = attacks == static_cast<size_t>(std::lround(0.10 * k) + std::lround(0.05 * k));
      for (size_t p = 0; p < n_programs; ++p) {
        std::vector<size_t>& w = widths[p];
        ok = ok && w.size() >= lo && w.size() <= lo + 1;
        std::sort(w.begin(), w.end());
        w.erase(std::unique(w.begin(), w.end()), w.end());
        ok = ok && (spec.fixed_n != 0 || lo < 3 || w.size() == 3);
        std::vector<Strategy>& s = strategies[p];
        std::sort(s.begin(), s.end());
        ok = ok && (lo < 4 || std::unique(s.begin(), s.end()) - s.begin() == 4);
      }
      return ok;
    };
    Expect(stratified(a) && stratified(c), name + ": config sets are stratified");

    if (spec.open_loop) {
      const std::vector<Request> requests = Draw(spec, a, 11, 20000);
      const double rate = static_cast<double>(requests.size()) / requests.back().due_s;
      Expect(std::fabs(rate / spec.rate_per_s - 1.0) < 0.05,
             name + ": arrival schedule keeps its mean rate");
    }
    if (spec.replay) {
      bool replayed = true;
      for (const Request& r : Draw(spec, a, 11, 200)) {
        replayed = replayed && r.workload_seed == a[r.config].replay_seed;
      }
      Expect(replayed, name + ": requests replay their config's seed");
    }
  }
}

void TestVerdicts() {
  // A clean / detect / diverge trio on one program.
  Config config;
  config.program = 0;
  config.strategy = Strategy::kCheckAsan;
  config.n = 4;
  config.attack_draw = 2;
  const Attack attacks[] = {Attack::kNone, Attack::kDetect, Attack::kDiverge};
  std::vector<Overlay> overlays;
  std::vector<api::RunReport> reports;
  for (Attack attack : attacks) {
    config.attack = attack;
    const Overlay overlay = ResolveOverlay(config, config.n);
    api::NvxBuilder builder = BaseBuilder(config);
    ApplyOverlay(overlay, &builder);
    bunshin::StatusOr<api::NvxSession> session = builder.Build();
    Expect(session.ok(), std::string("build ") + AttackName(attack));
    if (!session.ok()) {
      return;
    }
    api::RunRequest request;
    request.workload_seed = 99;
    bunshin::StatusOr<api::RunReport> report = session->Run(request);
    Expect(report.ok(), std::string("run ") + AttackName(attack));
    if (!report.ok()) {
      return;
    }
    overlays.push_back(overlay);
    reports.push_back(*report);
  }
  for (size_t i = 0; i < overlays.size(); ++i) {
    for (size_t j = 0; j < reports.size(); ++j) {
      const bool pass = CheckVerdict(overlays[i], reports[j]).empty();
      Expect(pass == (i == j), std::string(AttackName(overlays[i].attack)) + " verdict vs " +
                                   AttackName(overlays[j].attack) + " report");
    }
  }
  // A detection blamed on the wrong variant or detector is a wrong verdict.
  Overlay wrong_variant = overlays[1];
  wrong_variant.variant = (wrong_variant.variant + 1) % config.n;
  Expect(!CheckVerdict(wrong_variant, reports[1]).empty(), "detection in another variant");
  Overlay wrong_detector = overlays[1];
  wrong_detector.text = "__msan_warning";
  Expect(!CheckVerdict(wrong_detector, reports[1]).empty(), "detection by another detector");

  // Report comparison is bit for bit.
  Expect(CompareReports(reports[0], reports[0]).empty(), "a report equals itself");
  api::RunReport nudged = reports[0];
  nudged.total_time = std::nextafter(nudged.total_time, 1e300);
  Expect(CompareReports(reports[0], nudged) == "total_time", "one ulp of total_time differs");
  nudged = reports[0];
  nudged.variant_finish_time.back() += 1.0;
  Expect(CompareReports(reports[0], nudged) == "variant_finish_time", "a finish time differs");
}

void TestCalibrator() {
  Calibrator calibrator;
  const Calibration first = calibrator.Run(3);
  const Calibration second = calibrator.Run(1);
  Expect(first.wall_ms > 0.0 && first.cpu_ms > 0.0 && second.wall_ms > 0.0,
         "the calibration kernel takes time");
  Expect(first.cpu_ms <= first.wall_ms * 1.05 + 0.5, "kernel CPU time fits in its wall time");
}

}  // namespace

int RunSelfTest() {
  TestPercentiles();
  TestCalibrator();
  TestDeterminism();
  TestVerdicts();
  std::printf("selftest: %d of %d checks passed\n", g_checks - g_failures, g_checks);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
