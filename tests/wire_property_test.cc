// Property sweep over the wire format (src/net/wire.h): randomized
// VariantPlans generated from a seeded rng must round-trip exactly —
// Decode(Encode(p)) re-encodes to the same bytes and preserves CacheKey() —
// and every truncation of a valid buffer must return a definite error. The
// same holds for the v3 messages: key-only run requests, plan-unknown
// replies and stats replies. Bit
// flips anywhere in a valid buffer must never crash or over-read (they may
// decode to a different valid value; lengths, counts, and enums are the
// fields that must reject). Frames go through the production reader over an
// in-process connection. A plan whose counts overstate its bytes must fail
// without the decoder building what the counts claim. Runs under
// AddressSanitizer in CI, where an over-read is a hard failure rather than a
// silent one.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/api/plan.h"
#include "src/net/wire.h"
#include "src/sanitizer/sanitizer.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

// ---------------------------------------------------------------------------
// Seeded generators.
// ---------------------------------------------------------------------------

std::string RandomName(std::mt19937_64& rng) {
  // Include the cache-key separator characters on purpose: the key's
  // length-prefixing and the wire's length-prefixing must both survive them.
  static constexpr char kAlphabet[] = "abcXYZ019|:/=.-_";
  std::uniform_int_distribution<size_t> len(0, 24);
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlphabet) - 2);
  std::string name;
  const size_t n = len(rng);
  for (size_t i = 0; i < n; ++i) {
    name.push_back(kAlphabet[pick(rng)]);
  }
  return name;
}

double RandomDouble(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  switch (rng() % 8) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return 1e-300;  // subnormal-adjacent: %.17g and bit-cast must both hold
    default:
      return dist(rng);
  }
}

workload::BenchmarkSpec RandomBenchmark(std::mt19937_64& rng) {
  workload::BenchmarkSpec bench;
  bench.name = RandomName(rng);
  bench.suite = static_cast<workload::Suite>(rng() % 4);
  bench.n_functions = rng() % 500;
  bench.hottest_share = RandomDouble(rng);
  bench.func_rate_sigma = RandomDouble(rng);
  bench.total_compute = RandomDouble(rng);
  bench.n_syscalls = rng() % 10000;
  bench.io_write_frac = RandomDouble(rng);
  bench.noise_rel_sigma = RandomDouble(rng);
  bench.threads = 1 + rng() % 8;
  bench.locks_per_kilo = RandomDouble(rng);
  bench.barriers = rng() % 16;
  bench.cache_sensitivity = RandomDouble(rng);
  bench.overheads.asan = RandomDouble(rng);
  bench.overheads.msan = RandomDouble(rng);
  bench.overheads.ubsan = RandomDouble(rng);
  bench.overheads.msan_supported = rng() % 2 == 0;
  if (rng() % 4 == 0) {
    bench.unsupported_reason = RandomName(rng);
  }
  return bench;
}

workload::ServerSpec RandomServer(std::mt19937_64& rng) {
  workload::ServerSpec server;
  server.name = RandomName(rng);
  server.threads = 1 + rng() % 8;
  server.requests = rng() % 1000;
  server.file_kb = rng() % 4096;
  server.concurrency = 1 + rng() % 64;
  server.noise_rel_sigma = RandomDouble(rng);
  return server;
}

api::VariantPlan RandomPlan(std::mt19937_64& rng) {
  api::VariantPlan plan;
  if (rng() % 2 == 0) {
    plan.benchmark = RandomBenchmark(rng);
  } else {
    plan.server = RandomServer(rng);
  }
  plan.strategy = static_cast<api::DistributionStrategy>(rng() % 4);
  plan.seed = rng();
  plan.measure_standalone = rng() % 2 == 0;
  plan.requested_variants = rng() % 16;
  plan.check_sanitizer = static_cast<san::SanitizerId>(rng() % 8);
  const size_t n_sans = rng() % 4;
  for (size_t i = 0; i < n_sans; ++i) {
    plan.sanitizers.push_back(static_cast<san::SanitizerId>(rng() % 8));
  }
  plan.partition_options.algorithm = static_cast<partition::Algorithm>(rng() % 4);
  plan.partition_options.max_nodes = rng() % 1000000;
  plan.partition_options.epsilon = RandomDouble(rng);
  plan.engine_config.mode = static_cast<nxe::LockstepMode>(rng() % 2);
  plan.engine_config.ring_capacity = 1 + rng() % 1024;
  plan.engine_config.cache_sensitivity = RandomDouble(rng);
  plan.engine_config.contention_variants = rng() % 16;
  plan.engine_config.cost.kernel_syscall = RandomDouble(rng);
  plan.engine_config.cost.trap_hook = RandomDouble(rng);
  plan.engine_config.cost.sync_slot = RandomDouble(rng);
  plan.engine_config.cost.result_fetch = RandomDouble(rng);
  plan.engine_config.cost.wait_wakeup = RandomDouble(rng);
  plan.engine_config.cost.synccall = RandomDouble(rng);
  plan.engine_config.cost.lock_primitive = RandomDouble(rng);
  plan.engine_config.cost.cores = static_cast<int>(rng() % 64);
  plan.engine_config.cost.llc_alpha = RandomDouble(rng);
  plan.engine_config.cost.llc_exponent = RandomDouble(rng);
  plan.engine_config.cost.background_load = RandomDouble(rng);
  plan.engine_config.cost.load_wait_coeff = RandomDouble(rng);

  const size_t n_specs = rng() % 6;
  for (size_t i = 0; i < n_specs; ++i) {
    workload::VariantSpec spec;
    spec.name = RandomName(rng);
    spec.compute_scale = RandomDouble(rng);
    spec.jitter_seed = rng();
    const size_t n = rng() % 3;
    for (size_t s = 0; s < n; ++s) {
      spec.sanitizers.push_back(static_cast<san::SanitizerId>(rng() % 8));
    }
    plan.specs.push_back(std::move(spec));
    plan.labels.push_back(RandomName(rng));  // decode demands one per spec
  }
  if (rng() % 3 == 0) {
    distribution::CheckDistributionPlan check;
    check.n_variants = rng() % 8;
    const size_t n_funcs = rng() % 4;
    for (size_t i = 0; i < n_funcs; ++i) {
      std::vector<std::string> funcs;
      for (size_t f = 0; f < rng() % 4; ++f) {
        funcs.push_back(RandomName(rng));
      }
      check.protected_functions.push_back(std::move(funcs));
      check.predicted_overhead.push_back(RandomDouble(rng));
    }
    const size_t n_bins = rng() % 4;
    for (size_t i = 0; i < n_bins; ++i) {
      std::vector<size_t> bin;
      for (size_t b = 0; b < rng() % 5; ++b) {
        bin.push_back(rng() % 100);
      }
      check.partition.bins.push_back(std::move(bin));
      check.partition.bin_sums.push_back(RandomDouble(rng));
    }
    check.partition.total = RandomDouble(rng);
    check.partition.max_sum = RandomDouble(rng);
    check.partition.balance_ratio = RandomDouble(rng);
    plan.check_plan = std::move(check);
  }
  const size_t n_groups = rng() % 3;
  for (size_t i = 0; i < n_groups; ++i) {
    std::vector<std::string> group;
    for (size_t g = 0; g < rng() % 3; ++g) {
      group.push_back(RandomName(rng));
    }
    plan.sanitizer_groups.push_back(std::move(group));
  }
  const size_t n_detect = rng() % 3;
  for (size_t i = 0; i < n_detect; ++i) {
    plan.detect_injections.push_back({rng() % 16, RandomName(rng)});
  }
  const size_t n_diverge = rng() % 3;
  for (size_t i = 0; i < n_diverge; ++i) {
    plan.diverge_injections.push_back({rng() % 16, RandomName(rng)});
  }
  return plan;
}

api::PartialReport RandomPartial(std::mt19937_64& rng, size_t n_variants) {
  api::PartialReport partial;
  // A valid coverage: a subset of [0, n_variants) without duplicates.
  for (size_t global = 0; global < n_variants; ++global) {
    if (global == 0 || rng() % 2 == 0) {
      partial.variant_index.push_back(global);
    }
  }
  partial.owns_baseline = rng() % 2 == 0;
  api::RunReport& report = partial.report;
  report.backend = "trace";
  report.outcome = api::NvxOutcome::kOk;
  report.aborted_all = false;
  report.total_time = RandomDouble(rng);
  if (rng() % 2 == 0) {
    report.baseline_time = RandomDouble(rng);
  }
  for (size_t i = 0; i < partial.variant_index.size(); ++i) {
    report.variant_finish_time.push_back(RandomDouble(rng));
    report.variant_compute_scale.push_back(RandomDouble(rng));
  }
  if (!partial.variant_index.empty()) {
    switch (rng() % 3) {
      case 0:
        break;
      case 1:
        report.outcome = api::NvxOutcome::kDetected;
        report.detection =
            api::Detection{rng() % partial.variant_index.size(), rng() % 4, RandomName(rng)};
        break;
      case 2:
        report.outcome = api::NvxOutcome::kDiverged;
        report.divergence = api::Divergence{rng() % partial.variant_index.size(),
                                            rng() % 4,
                                            rng() % 1000,
                                            RandomName(rng),
                                            RandomName(rng),
                                            RandomName(rng)};
        break;
    }
  }
  report.synced_syscalls = rng() % 100000;
  report.ignored_syscalls = rng() % 1000;
  report.lockstep_barriers = rng() % 1000;
  report.lock_acquisitions = rng() % 1000;
  report.avg_syscall_gap = RandomDouble(rng);
  report.max_syscall_gap = rng() % 100000;
  return partial;
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

constexpr int kPlans = 200;

TEST(WirePropertyTest, PlanRoundTripIsExact) {
  std::mt19937_64 rng(0xB00B5EED);
  for (int i = 0; i < kPlans; ++i) {
    const api::VariantPlan plan = RandomPlan(rng);
    const std::string bytes = net::EncodeVariantPlan(plan);
    auto decoded = net::DecodeVariantPlan(bytes);
    ASSERT_TRUE(decoded.ok()) << "plan " << i << ": " << decoded.status().ToString();
    // Byte equality of the re-encode implies every field survived (the
    // codec writes all of them, and == on NaN-bearing doubles would lie).
    EXPECT_EQ(net::EncodeVariantPlan(*decoded), bytes) << "plan " << i;
    EXPECT_EQ(decoded->CacheKey(), plan.CacheKey()) << "plan " << i;
  }
}

TEST(WirePropertyTest, EveryTruncationOfAPlanErrors) {
  std::mt19937_64 rng(0xFACADE);
  for (int i = 0; i < 20; ++i) {
    const std::string bytes = net::EncodeVariantPlan(RandomPlan(rng));
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      auto decoded = net::DecodeVariantPlan(std::string_view(bytes).substr(0, cut));
      EXPECT_FALSE(decoded.ok()) << "plan " << i << " cut at " << cut << "/" << bytes.size();
    }
  }
}

TEST(WirePropertyTest, BitFlipsNeverCrashPlanDecode) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int i = 0; i < 20; ++i) {
    const std::string bytes = net::EncodeVariantPlan(RandomPlan(rng));
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int bit : {0, 3, 7}) {
        std::string corrupt = bytes;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
        // Must terminate with either a definite error or a benign decode —
        // never a crash, hang, or (under ASan) an out-of-bounds read.
        auto decoded = net::DecodeVariantPlan(corrupt);
        if (decoded.ok()) {
          net::EncodeVariantPlan(*decoded);  // and the result is re-encodable
        }
      }
    }
  }
}

TEST(WirePropertyTest, FrameReadSurvivesTruncationAndFlips) {
  std::mt19937_64 rng(0x5EED);
  for (int i = 0; i < 50; ++i) {
    net::Frame frame;
    frame.type = static_cast<net::MessageType>(1 + rng() % 7);
    frame.request_id = rng();
    frame.payload = RandomName(rng);
    const std::string bytes = net::EncodeFrame(frame);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(testutil::ReadFrameFrom(std::string_view(bytes).substr(0, cut)).ok());
    }
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
      (void)testutil::ReadFrameFrom(corrupt);  // definite result, no crash
    }
  }
}

// A plan whose spec count equals the number of bytes that follow it. A
// spec takes at least 24 bytes, so the count overstates what the bytes can
// hold; the decoder must reject that count before building the specs it
// claims. An 8 MB payload must fail with less than 64 MB of peak growth.
TEST(WirePropertyTest, OverstatedSpecCountCostsOnlyTheBytesSent) {
  // The spec count sits where a plan with one spec first differs from a
  // plan with none; the hostile plan keeps what comes before it.
  api::VariantPlan one_spec;
  one_spec.specs.emplace_back();
  one_spec.labels.emplace_back();
  const std::string none = net::EncodeVariantPlan(api::VariantPlan());
  const std::string one = net::EncodeVariantPlan(one_spec);
  ASSERT_TRUE(net::DecodeVariantPlan(one).ok());
  const size_t at = std::mismatch(none.begin(), none.end(), one.begin()).first - none.begin();
  ASSERT_LT(at, none.size());
  constexpr uint32_t kTrailing = 8u << 20;
  net::WireWriter w;
  w.U32(kTrailing);
  const std::string hostile = none.substr(0, at) + w.Take() + std::string(kTrailing, '\0');

  std::ofstream("/proc/self/clear_refs") << "5";  // peak := current, where allowed
  const size_t before = testutil::PeakRssKb();
  if (before == 0) {
    GTEST_SKIP() << "no VmHWM in /proc/self/status";
  }
  const auto decoded = net::DecodeVariantPlan(hostile);
  EXPECT_LT(testutil::PeakRssKb(), before + (64u << 10))
      << "peak RSS grew by " << (testutil::PeakRssKb() - before) << " KiB";
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("element count " + std::to_string(kTrailing)),
            std::string::npos)
      << "rejected for another reason: " << decoded.status().ToString();
}

TEST(WirePropertyTest, PartialReportRoundTripAndTruncation) {
  std::mt19937_64 rng(0xDECADE);
  for (int i = 0; i < kPlans; ++i) {
    const size_t n_variants = 1 + rng() % 8;
    const api::PartialReport partial = RandomPartial(rng, n_variants);
    const std::string bytes = net::EncodePartialReport(partial);
    auto decoded = net::DecodePartialReport(bytes, n_variants);
    ASSERT_TRUE(decoded.ok()) << "partial " << i << ": " << decoded.status().ToString();
    EXPECT_EQ(net::EncodePartialReport(*decoded), bytes) << "partial " << i;
    if (i < 20) {
      for (size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_FALSE(net::DecodePartialReport(std::string_view(bytes).substr(0, cut), n_variants)
                         .ok())
            << "partial " << i << " cut at " << cut;
      }
    }
  }
}

net::RunRequestMsg RandomKeyOnlyRequest(std::mt19937_64& rng) {
  net::RunRequestMsg msg;
  msg.cache_key = RandomName(rng);
  msg.n_variants = 1 + rng() % 16;
  msg.members.push_back(0);
  for (size_t i = 1; i < msg.n_variants; ++i) {
    if (rng() % 2 == 0) {
      msg.members.push_back(i);
    }
  }
  msg.owns_baseline = rng() % 2 == 0;
  msg.request.entry = RandomName(rng);
  const size_t n_args = rng() % 4;
  for (size_t i = 0; i < n_args; ++i) {
    msg.request.args.push_back(static_cast<int64_t>(rng()));
  }
  if (rng() % 2 == 0) {
    msg.request.workload_seed = rng();
  }
  return msg;  // no plan_bytes: the plan travels by key
}

net::ExecutorStats RandomStats(std::mt19937_64& rng) {
  net::ExecutorStats stats;
  stats.requests = rng();
  stats.plan_cache_hits = rng();
  stats.decode_errors = rng() % 1000;
  stats.analysis_rejects = rng() % 1000;
  stats.connections_accepted = rng();
  stats.connections_refused = rng() % 1000;
  stats.deadline_closes = rng() % 1000;
  stats.plan_unknown_replies = rng() % 1000;
  return stats;
}

// A message codec's properties: the decode of a valid encoding re-encodes to
// the same bytes, every truncation is a definite error, and seeded bit flips
// decode to an error or to a value that re-encodes — never a crash or an
// over-read.
template <typename Decode, typename Encode>
void ExpectCodecProperties(const std::string& bytes, Decode decode, Encode encode,
                           std::mt19937_64& rng, const std::string& what) {
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString();
  EXPECT_EQ(encode(*decoded), bytes) << what;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode(std::string_view(bytes).substr(0, cut)).ok())
        << what << " cut at " << cut << "/" << bytes.size();
  }
  for (int flip = 0; flip < 64; ++flip) {
    std::string corrupt = bytes;
    const size_t pos = rng() % corrupt.size();
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (rng() % 8)));
    auto result = decode(corrupt);
    if (result.ok()) {
      encode(*result);
    }
  }
}

TEST(WirePropertyTest, KeyOnlyRunRequestRoundTripTruncationAndFlips) {
  std::mt19937_64 rng(0x6B6579);
  for (int i = 0; i < kPlans; ++i) {
    const net::RunRequestMsg msg = RandomKeyOnlyRequest(rng);
    const std::string bytes = net::EncodeRunRequestMsg(msg);
    auto decoded = net::DecodeRunRequestMsg(bytes);
    ASSERT_TRUE(decoded.ok()) << "request " << i << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded->cache_key, msg.cache_key);
    EXPECT_EQ(decoded->members, msg.members);
    EXPECT_EQ(decoded->request.workload_seed, msg.request.workload_seed);
    EXPECT_TRUE(decoded->plan_bytes.empty());
    ExpectCodecProperties(bytes, net::DecodeRunRequestMsg, net::EncodeRunRequestMsg, rng,
                          "key-only request " + std::to_string(i));
  }
}

TEST(WirePropertyTest, PlanUnknownReplyRoundTripTruncationAndFlips) {
  std::mt19937_64 rng(0x554E4B);
  for (int i = 0; i < kPlans; ++i) {
    const net::PlanUnknownMsg msg{RandomName(rng)};
    const std::string bytes = net::EncodePlanUnknownMsg(msg);
    auto decoded = net::DecodePlanUnknownMsg(bytes);
    ASSERT_TRUE(decoded.ok()) << "reply " << i << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded->cache_key, msg.cache_key);
    ExpectCodecProperties(bytes, net::DecodePlanUnknownMsg, net::EncodePlanUnknownMsg, rng,
                          "plan-unknown reply " + std::to_string(i));
  }
}

TEST(WirePropertyTest, StatsReplyRoundTripTruncationAndFlips) {
  std::mt19937_64 rng(0x5747A75);
  for (int i = 0; i < kPlans; ++i) {
    const net::ExecutorStats stats = RandomStats(rng);
    const std::string bytes = net::EncodeExecutorStats(stats);
    auto decoded = net::DecodeExecutorStats(bytes);
    ASSERT_TRUE(decoded.ok()) << "stats " << i << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded->requests, stats.requests);
    EXPECT_EQ(decoded->plan_unknown_replies, stats.plan_unknown_replies);
    ExpectCodecProperties(bytes, net::DecodeExecutorStats, net::EncodeExecutorStats, rng,
                          "stats reply " + std::to_string(i));
  }
}

}  // namespace
}  // namespace bunshin
