// Tests for the multi-host execution plane (src/net/): wire-format framing
// and codecs, PartialReport decode validation, the executor daemon's serve
// loop and plan cache, and the RemoteBackend dispatcher — including the
// acceptance property that Remote(loopback fleet) produces merged reports
// bit-identical to Shards(k) and to the unsharded session, and that every
// injected fault (dead executor, kill mid-run, black-hole timeout, truncated
// frame, version mismatch) terminates with a definite Status. This suite
// runs under ThreadSanitizer and AddressSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/nvx.h"
#include "src/net/endpoint.h"
#include "src/net/executor.h"
#include "src/net/remote.h"
#include "src/net/wire.h"
#include "src/support/socket.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using api::NvxBuilder;
using api::NvxOutcome;
using api::PartialReport;
using api::RunReport;
using net::Endpoint;
using net::ExecutorServer;
using net::Frame;
using net::MessageType;
using net::RemoteOptions;
using net::WireReader;
using net::WireWriter;
using testutil::PeakRssKb;
using testutil::ReadFrameFrom;

// ---------------------------------------------------------------------------
// Wire primitives.
// ---------------------------------------------------------------------------

TEST(WireTest, PrimitiveRoundTrip) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.141592653589793);
  w.Bool(true);
  w.Str("hello");
  w.Str("");

  WireReader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.141592653589793);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.status().ok());
}

TEST(WireTest, DoubleRoundTripIsBitExact) {
  // Bit-cast encoding: NaN payloads and signed zero survive exactly.
  const double values[] = {0.0, -0.0, 1e-300, -1e300, std::nan("0x42"),
                           std::numeric_limits<double>::infinity()};
  for (double v : values) {
    WireWriter w;
    w.F64(v);
    WireReader r(w.buffer());
    const double back = r.F64();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0);
  }
}

TEST(WireTest, ReaderIsStickyOnTruncation) {
  WireWriter w;
  w.U32(7);
  WireReader r(w.buffer());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero value, error latched
  EXPECT_FALSE(r.status().ok());
  EXPECT_EQ(r.U8(), 0u);  // sticky
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, StringLengthValidatedBeforeAllocation) {
  WireWriter w;
  w.U32(0xFFFFFFFF);  // claims a 4GB string with no bytes behind it
  WireReader r(w.buffer());
  r.Str();
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, CountGuardsAgainstHugeElementCounts) {
  WireWriter w;
  w.U32(1u << 30);  // a billion 8-byte elements in an empty buffer
  WireReader r(w.buffer());
  EXPECT_EQ(r.Count(8), 0u);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripOverLoopbackSocket) {
  auto [a, b] = support::LoopbackSocketPair();
  Frame frame;
  frame.type = MessageType::kRunRequest;
  frame.request_id = 77;
  frame.payload = "payload-bytes";
  ASSERT_TRUE(net::WriteFrame(*a, frame).ok());
  auto got = net::ReadFrame(*b);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->type, MessageType::kRunRequest);
  EXPECT_EQ(got->request_id, 77u);
  EXPECT_EQ(got->payload, "payload-bytes");
}

TEST(FrameTest, BadMagicIsDefiniteError) {
  std::string bytes = net::EncodeFrame(Frame{MessageType::kPing, 1, ""});
  bytes[0] ^= 0xFF;
  auto decoded = ReadFrameFrom(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, VersionMismatchIsFailedPrecondition) {
  std::string bytes = net::EncodeFrame(Frame{MessageType::kPing, 1, ""});
  bytes[4] = static_cast<char>(net::kWireVersion + 1);  // version field
  bytes[5] = 0;  // (little-endian u16 after the u32 magic)
  auto decoded = ReadFrameFrom(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FrameTest, OversizePayloadLengthRejectedBeforeAllocation) {
  WireWriter w;
  w.U32(net::kWireMagic);
  w.U16(net::kWireVersion);
  w.U16(static_cast<uint16_t>(MessageType::kPing));
  w.U64(1);
  w.U64(net::kMaxFramePayload + 1);
  auto [a, b] = support::LoopbackSocketPair();
  ASSERT_TRUE(a->SendAll(w.buffer().data(), w.buffer().size()).ok());
  auto decoded = net::ReadFrame(*b);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// A header may claim up to kMaxFramePayload; the reader must not commit that
// much memory before the bytes arrive (a silent peer would hold it until its
// deadline, one per connection).
TEST(FrameTest, OverstatedPayloadLengthCostsOnlyTheBytesSent) {
  std::ofstream("/proc/self/clear_refs") << "5";  // peak := current, where allowed
  const size_t before = PeakRssKb();
  if (before == 0) {
    GTEST_SKIP() << "no VmHWM in /proc/self/status";
  }
  WireWriter w;
  w.U32(net::kWireMagic);
  w.U16(net::kWireVersion);
  w.U16(static_cast<uint16_t>(MessageType::kRunRequest));
  w.U64(1);
  w.U64(200ull << 20);  // claims 200 MiB, sends 10 bytes, then closes
  auto [a, b] = support::LoopbackSocketPair();
  ASSERT_TRUE(a->SendAll(w.buffer().data(), w.buffer().size()).ok());
  ASSERT_TRUE(a->SendAll("0123456789", 10).ok());
  a->Close();
  auto decoded = net::ReadFrame(*b);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(PeakRssKb(), before + (32u << 10)) << "peak RSS grew by "
                                               << (PeakRssKb() - before) << " KiB";
}

TEST(FrameTest, TruncatedStreamRejected) {
  const std::string bytes = net::EncodeFrame(Frame{MessageType::kPong, 3, "abcdef"});
  ASSERT_TRUE(ReadFrameFrom(bytes).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = ReadFrameFrom(std::string_view(bytes).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kUnavailable) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// Plan codec.
// ---------------------------------------------------------------------------

api::VariantPlan PlanFixture() {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0])
      .Variants(5)
      .DistributeChecks(san::SanitizerId::kASan)
      .InjectDetection(2, "__asan_report_store")
      .InjectDivergence(3, "tampered")
      .Seed(97)
      .MeasureStandalone();
  auto plan = builder.PlanVariants();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

TEST(PlanCodecTest, RoundTripPreservesBytesAndCacheKey) {
  const api::VariantPlan plan = PlanFixture();
  const std::string bytes = net::EncodeVariantPlan(plan);
  auto decoded = net::DecodeVariantPlan(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Re-encode equality implies field-level equality (the codec writes every
  // field), and CacheKey equality is what the executor's cache checks.
  EXPECT_EQ(net::EncodeVariantPlan(*decoded), bytes);
  EXPECT_EQ(decoded->CacheKey(), plan.CacheKey());
  EXPECT_EQ(decoded->n_variants(), plan.n_variants());
}

TEST(PlanCodecTest, TrailingBytesRejected) {
  std::string bytes = net::EncodeVariantPlan(PlanFixture());
  bytes += '\0';
  auto decoded = net::DecodeVariantPlan(bytes);
  ASSERT_FALSE(decoded.ok());
}

TEST(PlanCodecTest, InvalidEnumRejected) {
  api::VariantPlan plan = PlanFixture();
  std::string bytes = net::EncodeVariantPlan(plan);
  // The strategy byte follows the optional benchmark and absent server. Flip
  // it far out of range; decode must fail, not produce a garbage enum.
  const std::string clean = net::EncodeVariantPlan(plan);
  bool rejected_any = false;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = clean;
    corrupt[i] = static_cast<char>(0xEE);
    auto decoded = net::DecodeVariantPlan(corrupt);
    if (!decoded.ok()) {
      rejected_any = true;
    }
  }
  EXPECT_TRUE(rejected_any);
}

// ---------------------------------------------------------------------------
// PartialReport validation: a corrupt wire report cannot reach Merge.
// ---------------------------------------------------------------------------

PartialReport ValidPartial() {
  PartialReport partial;
  partial.variant_index = {0, 2};
  partial.owns_baseline = true;
  partial.report.backend = "trace";
  partial.report.outcome = NvxOutcome::kOk;
  partial.report.total_time = 10.0;
  partial.report.variant_finish_time = {9.0, 10.0};
  partial.report.variant_compute_scale = {1.0, 1.5};
  return partial;
}

TEST(PartialValidationTest, ValidPartialRoundTrips) {
  const PartialReport partial = ValidPartial();
  auto decoded = net::DecodePartialReport(net::EncodePartialReport(partial), 3);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->variant_index, partial.variant_index);
  EXPECT_TRUE(decoded->owns_baseline);
  EXPECT_EQ(decoded->report.variant_finish_time, partial.report.variant_finish_time);
}

TEST(PartialValidationTest, OutOfRangeSlotRejected) {
  PartialReport partial = ValidPartial();
  partial.variant_index = {0, 7};  // session has 3 variants
  auto decoded = net::DecodePartialReport(net::EncodePartialReport(partial), 3);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartialValidationTest, DuplicateSlotRejected) {
  PartialReport partial = ValidPartial();
  partial.variant_index = {0, 0};
  auto decoded = net::DecodePartialReport(net::EncodePartialReport(partial), 3);
  ASSERT_FALSE(decoded.ok());
}

TEST(PartialValidationTest, LengthMismatchRejected) {
  PartialReport partial = ValidPartial();
  partial.report.variant_finish_time.push_back(11.0);  // 3 times, 2 slots
  auto decoded = net::DecodePartialReport(net::EncodePartialReport(partial), 3);
  ASSERT_FALSE(decoded.ok());
}

TEST(PartialValidationTest, DetectionWithoutAttributionRejected) {
  PartialReport partial = ValidPartial();
  partial.report.outcome = NvxOutcome::kDetected;  // no detection payload
  auto decoded = net::DecodePartialReport(net::EncodePartialReport(partial), 3);
  ASSERT_FALSE(decoded.ok());
}

TEST(PartialValidationTest, DetectionOutsideCoverageRejected) {
  PartialReport partial = ValidPartial();
  partial.report.outcome = NvxOutcome::kDetected;
  partial.report.detection = api::Detection{5, 0, "__asan_report_load"};  // 2 local slots
  auto decoded = net::DecodePartialReport(net::EncodePartialReport(partial), 3);
  ASSERT_FALSE(decoded.ok());
}

TEST(PartialValidationTest, OkReplyWithoutPartialRejected) {
  net::RunReplyMsg reply;
  reply.run_status = Status::Ok();  // claims success but carries no partial
  auto decoded = net::DecodeRunReplyMsg(net::EncodeRunReplyMsg(reply), 3);
  ASSERT_FALSE(decoded.ok());
}

// ---------------------------------------------------------------------------
// Shard member groups: one rule for both dispatchers.
// ---------------------------------------------------------------------------

TEST(ShardGroupsTest, RoundRobinWithLeaderReplicas) {
  const auto groups = api::ShardMemberGroups(6, 2);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 1, 3, 5}));
  EXPECT_EQ(groups[1], (std::vector<size_t>{0, 2, 4}));
}

TEST(ShardGroupsTest, EmptyGroupsDropped) {
  const auto groups = api::ShardMemberGroups(2, 4);  // one follower, 4 shards
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 1}));
}

TEST(TraceBackendFactoryTest, RejectsBadMemberLists) {
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  EXPECT_FALSE(api::MakeTraceBackend(plan, {}, true).ok());
  EXPECT_FALSE(api::MakeTraceBackend(plan, {1, 0}, true).ok());      // leader not first
  EXPECT_FALSE(api::MakeTraceBackend(plan, {0, 99}, true).ok());     // out of range
  EXPECT_FALSE(api::MakeTraceBackend(plan, {0, 1, 1}, true).ok());   // duplicate
  EXPECT_TRUE(api::MakeTraceBackend(plan, {0, 1, 3}, false).ok());
}

// ---------------------------------------------------------------------------
// Remote ≡ Shards(k) ≡ unsharded over a loopback executor fleet.
// ---------------------------------------------------------------------------

std::vector<Endpoint> LoopbackFleet(const std::vector<std::shared_ptr<ExecutorServer>>& fleet) {
  std::vector<Endpoint> endpoints;
  for (size_t i = 0; i < fleet.size(); ++i) {
    endpoints.push_back(net::LoopbackEndpoint(fleet[i], "loopback-" + std::to_string(i)));
  }
  return endpoints;
}

// All-field equality: the bit-identity acceptance criterion. Doubles compare
// with == (not near): the wire encodes them bit-cast, the engine is
// deterministic, so any difference is a real divergence of the planes.
void ExpectReportsIdentical(const RunReport& a, const RunReport& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.aborted_all, b.aborted_all);
  ASSERT_EQ(a.detection.has_value(), b.detection.has_value());
  if (a.detection.has_value()) {
    EXPECT_EQ(a.detection->variant, b.detection->variant);
    EXPECT_EQ(a.detection->thread, b.detection->thread);
    EXPECT_EQ(a.detection->detector, b.detection->detector);
  }
  ASSERT_EQ(a.divergence.has_value(), b.divergence.has_value());
  if (a.divergence.has_value()) {
    EXPECT_EQ(a.divergence->variant, b.divergence->variant);
    EXPECT_EQ(a.divergence->thread, b.divergence->thread);
    EXPECT_EQ(a.divergence->sync_index, b.divergence->sync_index);
    EXPECT_EQ(a.divergence->expected, b.divergence->expected);
    EXPECT_EQ(a.divergence->actual, b.divergence->actual);
    EXPECT_EQ(a.divergence->detail, b.divergence->detail);
  }
  EXPECT_EQ(a.return_value, b.return_value);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.baseline_time, b.baseline_time);
  EXPECT_EQ(a.variant_finish_time, b.variant_finish_time);
  EXPECT_EQ(a.variant_standalone_time, b.variant_standalone_time);
  EXPECT_EQ(a.variant_compute_scale, b.variant_compute_scale);
  EXPECT_EQ(a.synced_syscalls, b.synced_syscalls);
  EXPECT_EQ(a.ignored_syscalls, b.ignored_syscalls);
  EXPECT_EQ(a.lockstep_barriers, b.lockstep_barriers);
  EXPECT_EQ(a.lock_acquisitions, b.lock_acquisitions);
  EXPECT_EQ(a.avg_syscall_gap, b.avg_syscall_gap);
  EXPECT_EQ(a.max_syscall_gap, b.max_syscall_gap);
}

template <typename Configure>
void ExpectRemoteEquivalence(Configure configure, const char* what) {
  NvxBuilder unsharded_builder;
  configure(unsharded_builder);
  auto unsharded_session = unsharded_builder.Build();
  ASSERT_TRUE(unsharded_session.ok()) << unsharded_session.status().ToString();
  auto unsharded = unsharded_session->Run();
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();

  std::vector<std::shared_ptr<ExecutorServer>> fleet = {std::make_shared<ExecutorServer>(),
                                                        std::make_shared<ExecutorServer>()};
  for (size_t k : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::string(what) + " with k=" + std::to_string(k));

    NvxBuilder sharded_builder;
    configure(sharded_builder);
    auto sharded_session = sharded_builder.Shards(k).Build();
    ASSERT_TRUE(sharded_session.ok()) << sharded_session.status().ToString();
    auto sharded = sharded_session->Run();
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    NvxBuilder remote_builder;
    configure(remote_builder);
    auto remote_session = remote_builder.Shards(k).Remote(LoopbackFleet(fleet)).Build();
    ASSERT_TRUE(remote_session.ok()) << remote_session.status().ToString();
    auto remote = remote_session->Run();
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();

    // The acceptance criterion: the remote plane is bit-identical to the
    // in-process sharded plane at every k — every field, including virtual
    // clocks and telemetry. (Shards(k) itself intentionally differs from the
    // unsharded session in total_time and summed counters — the leader
    // replicas' monitor work is real; see RunReport::Merge — so unsharded
    // bit-identity is asserted at k=1, where no replicas exist.)
    ExpectReportsIdentical(*remote, *sharded, "remote vs sharded");
    if (k == 1) {
      ExpectReportsIdentical(*remote, *unsharded, "remote k=1 vs unsharded");
    }
    // Across every k, outcome and attribution match the unsharded session.
    EXPECT_EQ(remote->outcome, unsharded->outcome);
    ASSERT_EQ(remote->detection.has_value(), unsharded->detection.has_value());
    if (unsharded->detection.has_value()) {
      EXPECT_EQ(remote->detection->variant, unsharded->detection->variant);
      EXPECT_EQ(remote->detection->detector, unsharded->detection->detector);
    }
    ASSERT_EQ(remote->divergence.has_value(), unsharded->divergence.has_value());
    if (unsharded->divergence.has_value()) {
      EXPECT_EQ(remote->divergence->variant, unsharded->divergence->variant);
      EXPECT_EQ(remote->divergence->sync_index, unsharded->divergence->sync_index);
    }
    EXPECT_EQ(remote->baseline_time, unsharded->baseline_time);
    EXPECT_EQ(remote->variant_compute_scale, unsharded->variant_compute_scale);
  }
}

TEST(RemoteEquivalenceTest, IdenticalCleanRun) {
  ExpectRemoteEquivalence(
      [](NvxBuilder& b) { b.Benchmark(workload::Spec2006()[0]).Variants(6).Seed(11); },
      "identical/clean");
}

TEST(RemoteEquivalenceTest, SelectiveLockstep) {
  ExpectRemoteEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[1])
            .Variants(5)
            .Lockstep(nxe::LockstepMode::kSelective)
            .Seed(13);
      },
      "identical/selective");
}

TEST(RemoteEquivalenceTest, CheckDistributionDetection) {
  ExpectRemoteEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[0])
            .Variants(6)
            .DistributeChecks(san::SanitizerId::kASan)
            .InjectDetection(3, "__asan_report_store")
            .Seed(17);
      },
      "check/detection");
}

TEST(RemoteEquivalenceTest, SanitizerDistribution) {
  ExpectRemoteEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[0])
            .Variants(3)
            .DistributeSanitizers(
                {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan})
            .Seed(19);
      },
      "sanitizer/clean");
}

TEST(RemoteEquivalenceTest, DivergenceAttribution) {
  ExpectRemoteEquivalence(
      [](NvxBuilder& b) {
        b.Benchmark(workload::Spec2006()[2])
            .Variants(5)
            .InjectDivergence(3, "exfiltrated-secret")
            .Seed(23)
            .MeasureStandalone();
      },
      "identical/divergence");
}

// ---------------------------------------------------------------------------
// Executor behavior: plan cache, occupancy feedback, affinity.
// ---------------------------------------------------------------------------

TEST(ExecutorTest, RepeatPlansHitTheExecutorPlanCache) {
  auto server = std::make_shared<ExecutorServer>();
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(3).Seed(41);
  auto session = builder.Remote({net::LoopbackEndpoint(server, "solo")}).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  ASSERT_TRUE(session->Run().ok());
  const auto cold = server->stats();
  ASSERT_TRUE(session->Run().ok());
  ASSERT_TRUE(session->Run().ok());
  const auto warm = server->stats();

  EXPECT_EQ(cold.plan_cache_hits, 0u);
  EXPECT_GE(warm.plan_cache_hits, 2u);  // every repeat skipped decode/rebuild
  EXPECT_EQ(warm.decode_errors, 0u);
  EXPECT_EQ(server->plan_cache_stats().entries, 1u);
}

TEST(ExecutorTest, AffinityIsConsistentPerCacheKeyAndGroup) {
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  std::vector<std::shared_ptr<ExecutorServer>> fleet = {
      std::make_shared<ExecutorServer>(), std::make_shared<ExecutorServer>(),
      std::make_shared<ExecutorServer>()};
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 2),
                             LoopbackFleet(fleet), RemoteOptions{});
  const uint64_t hash = net::AffinityHash(plan->CacheKey());
  // Same plan key -> same executor, and consecutive groups spread across
  // consecutive endpoints in the rotation.
  EXPECT_EQ(backend.PreferredEndpoint(0), hash % 3);
  EXPECT_EQ(backend.PreferredEndpoint(1), (hash + 1) % 3);
  EXPECT_EQ(backend.PreferredEndpoint(0), backend.PreferredEndpoint(0));
}

// Forwards to a real connection and records, for each run request sent,
// whether it carried the plan's bytes.
struct PlanLog {
  std::mutex mu;
  std::vector<bool> carried_plan;

  std::vector<bool> Take() {
    std::lock_guard<std::mutex> lock(mu);
    return std::exchange(carried_plan, {});
  }
};

class RecordingSocket final : public support::Socket {
 public:
  RecordingSocket(std::unique_ptr<support::Socket> inner, std::shared_ptr<PlanLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  Status SendAll(const void* data, size_t n, support::Deadline deadline) override {
    // WriteFrame sends each frame in one call: the header, then the payload.
    const std::string_view bytes(static_cast<const char*>(data), n);
    WireReader header(bytes.substr(0, net::kFrameHeaderSize));
    header.U32();  // magic
    header.U16();  // version
    const auto type = static_cast<MessageType>(header.U16());
    if (header.status().ok() && type == MessageType::kRunRequest) {
      auto msg = net::DecodeRunRequestMsg(bytes.substr(net::kFrameHeaderSize));
      EXPECT_TRUE(msg.ok()) << msg.status().ToString();
      if (msg.ok()) {
        std::lock_guard<std::mutex> lock(log_->mu);
        log_->carried_plan.push_back(!msg->plan_bytes.empty());
      }
    }
    return inner_->SendAll(data, n, deadline);
  }
  StatusOr<size_t> RecvSome(void* data, size_t n, support::Deadline deadline) override {
    return inner_->RecvSome(data, n, deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<support::Socket> inner_;
  std::shared_ptr<PlanLog> log_;
};

// An endpoint dialing `server` in-process through a RecordingSocket.
Endpoint RecordedEndpoint(std::shared_ptr<ExecutorServer> server, std::shared_ptr<PlanLog> log) {
  Endpoint endpoint;
  endpoint.name = "recorded";
  endpoint.dial = [server, log]() -> StatusOr<std::unique_ptr<support::Socket>> {
    auto socket = server->ConnectLoopback();
    if (!socket.ok()) {
      return socket.status();
    }
    return std::unique_ptr<support::Socket>(new RecordingSocket(std::move(*socket), log));
  };
  return endpoint;
}

// A one-group backend whose group prefers `preferred` over `bystander`. A
// failure on the preferred endpoint would retry on the bystander and keep
// the preferred one out of the rotation for a minute, so while the
// bystander serves nothing, no run failed or demoted its endpoint.
std::unique_ptr<net::RemoteBackend> BackendPreferring(
    std::shared_ptr<const api::VariantPlan> plan, Endpoint preferred, Endpoint bystander,
    RemoteOptions options) {
  std::vector<Endpoint> endpoints(2);
  const size_t first = net::AffinityHash(plan->CacheKey()) % 2;
  endpoints[first] = std::move(preferred);
  endpoints[1 - first] = std::move(bystander);
  options.unhealthy_cooldown_ms = 60000;
  return std::make_unique<net::RemoteBackend>(
      plan, api::ShardMemberGroups(plan->n_variants(), 1), std::move(endpoints), options);
}

TEST(ExecutorTest, PlansTravelOncePerEndpoint) {
  NvxBuilder other;
  other.Benchmark(workload::Spec2006()[1]).Variants(3).Seed(61);
  auto other_plan = other.PlanVariants();
  ASSERT_TRUE(other_plan.ok()) << other_plan.status().ToString();
  auto plan_a = std::make_shared<const api::VariantPlan>(PlanFixture());
  auto plan_b = std::make_shared<const api::VariantPlan>(*other_plan);
  ASSERT_NE(plan_a->CacheKey(), plan_b->CacheKey());
  // A byte budget that fits either plan, but not both.
  const size_t one_plan = std::max(net::EncodeVariantPlan(*plan_a).size(),
                                   net::EncodeVariantPlan(*plan_b).size());
  auto server =
      std::make_shared<ExecutorServer>(net::ExecutorOptions{.plan_cache_bytes = one_plan});
  auto log = std::make_shared<PlanLog>();
  const Endpoint endpoint = RecordedEndpoint(server, log);
  // Both backends hold copies of one endpoint, so they share its
  // connections; a bystander shows whether a plan-unknown reply demoted it.
  auto bystander = std::make_shared<ExecutorServer>();
  auto a = BackendPreferring(plan_a, endpoint, net::LoopbackEndpoint(bystander, "bystander"),
                             RemoteOptions{});
  auto b = BackendPreferring(plan_b, endpoint, net::LoopbackEndpoint(bystander, "bystander"),
                             RemoteOptions{});

  // One plan: only the first request carries it.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a->Run({}).ok());
  }
  EXPECT_EQ(log->Take(), (std::vector<bool>{true, false, false, false}));
  auto stats = net::FetchExecutorStats(endpoint, 5000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->plan_unknown_replies, 0u);
  EXPECT_EQ(stats->plan_cache_hits, 3u);

  // Two plans sharing a one-plan cache: each switch back to a plan the
  // cache evicted costs exactly one plan-unknown reply and one resend.
  ASSERT_TRUE(b->Run({}).ok());  // b's first request: it carries b
  ASSERT_TRUE(a->Run({}).ok());  // by key, unknown, resent with a
  ASSERT_TRUE(b->Run({}).ok());  // by key, unknown, resent with b
  ASSERT_TRUE(b->Run({}).ok());  // by key, cached
  ASSERT_TRUE(a->Run({}).ok());  // by key, unknown, resent with a
  ASSERT_TRUE(a->Run({}).ok());  // by key, cached
  EXPECT_EQ(log->Take(),
            (std::vector<bool>{true, false, true, false, true, false, false, true, false}));
  stats = net::FetchExecutorStats(endpoint, 5000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->plan_unknown_replies, 3u);
  EXPECT_EQ(bystander->stats().requests, 0u);
}

// The trust rule for plans by key: only a request that carries a plan (and
// passes the key check and analysis) fills the cache.
TEST(ExecutorTest, KeyOnlyRequestsNeverFillTheCache) {
  ExecutorServer server;
  const api::VariantPlan plan = PlanFixture();
  auto socket = server.ConnectLoopback();
  ASSERT_TRUE(socket.ok());
  net::RunRequestMsg msg;
  msg.cache_key = plan.CacheKey();
  msg.n_variants = plan.n_variants();
  msg.members = {0, 1};
  msg.owns_baseline = true;
  ASSERT_TRUE(net::WriteFrame(**socket, Frame{MessageType::kRunRequest, 7,
                                              net::EncodeRunRequestMsg(msg)})
                  .ok());
  auto reply = net::ReadFrame(**socket);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kPlanUnknown);
  EXPECT_EQ(reply->request_id, 7u);
  auto unknown = net::DecodePlanUnknownMsg(reply->payload);
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_EQ(unknown->cache_key, plan.CacheKey());
  EXPECT_EQ(server.plan_cache_stats().entries, 0u);
  EXPECT_EQ(server.stats().plan_unknown_replies, 1u);
}

// A 4-variant ASan check-distribution session on perlbench, and the same
// plan with two derived fields of one variant changed. CacheKey() reads
// planning inputs only, so both plans carry one key.
NvxBuilder PoisonTargetBuilder() {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0])
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(5);
  return builder;
}

api::VariantPlan TamperedPlan(const api::VariantPlan& honest) {
  api::VariantPlan tampered = honest;
  tampered.specs[1].jitter_seed += 50;
  tampered.specs[1].compute_scale -= 0.05;
  return tampered;
}

// Sends `plan`'s bytes under `cache_key` as a whole-session run request on
// a fresh connection and returns the executor's reply.
StatusOr<net::RunReplyMsg> SendPlan(ExecutorServer& server, const api::VariantPlan& plan,
                                    const std::string& cache_key) {
  auto socket = server.ConnectLoopback();
  if (!socket.ok()) {
    return socket.status();
  }
  net::RunRequestMsg msg;
  msg.cache_key = cache_key;
  msg.n_variants = plan.n_variants();
  for (size_t v = 0; v < plan.n_variants(); ++v) {
    msg.members.push_back(v);
  }
  msg.owns_baseline = true;
  msg.plan_bytes = net::EncodeVariantPlan(plan);
  Status sent =
      net::WriteFrame(**socket, Frame{MessageType::kRunRequest, 1, net::EncodeRunRequestMsg(msg)});
  if (!sent.ok()) {
    return sent;
  }
  auto reply = net::ReadFrame(**socket);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply->type != MessageType::kRunReply) {
    return InvalidArgument("expected a run reply");
  }
  return net::DecodeRunReplyMsg(reply->payload, plan.n_variants());
}

// Every reply's occupancy says whether its request's plan came from the
// executor's cache.
TEST(ExecutorTest, ReplyOccupancyReportsPlanCacheHits) {
  ExecutorServer server;
  const api::VariantPlan plan = PlanFixture();
  auto cold = SendPlan(server, plan, plan.CacheKey());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->occupancy.plan_cache_hit);
  auto warm = SendPlan(server, plan, plan.CacheKey());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->occupancy.plan_cache_hit);
  EXPECT_EQ(warm->occupancy.plans_cached, 1u);
}

TEST(ExecutorTest, CachedPlanRejectsDifferentBytesUnderItsKey) {
  auto server = std::make_shared<ExecutorServer>();
  auto honest = PoisonTargetBuilder().PlanVariants();
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  const api::VariantPlan tampered = TamperedPlan(*honest);
  ASSERT_EQ(tampered.CacheKey(), honest->CacheKey());

  // The tampered plan reaches the empty cache first and is stored.
  auto planted = SendPlan(*server, tampered, honest->CacheKey());
  ASSERT_TRUE(planted.ok()) << planted.status().ToString();
  ASSERT_TRUE(planted->run_status.ok()) << planted->run_status.ToString();

  // An honest session's request carries its own bytes, which differ from
  // the cached plan's: it fails definitely instead of running the planted
  // plan.
  auto remote = PoisonTargetBuilder().Remote({net::LoopbackEndpoint(server, "solo")}).Build();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto report = remote->Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal) << report.status().ToString();
  EXPECT_EQ(server->stats().decode_errors, 1u);
}

TEST(ExecutorTest, TamperedPlanCannotReplaceACachedHonestPlan) {
  auto server = std::make_shared<ExecutorServer>();
  auto local = PoisonTargetBuilder().Build();
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto remote = PoisonTargetBuilder().Remote({net::LoopbackEndpoint(server, "solo")}).Build();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto first = remote->Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto honest = PoisonTargetBuilder().PlanVariants();
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  auto rejected = SendPlan(*server, TamperedPlan(*honest), honest->CacheKey());
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->run_status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server->stats().decode_errors, 1u);

  // The honest session's later requests name the plan by key alone and
  // still run the honest plan.
  for (uint64_t seed : {5u, 6u}) {
    api::RunRequest request;
    request.workload_seed = seed;
    auto expected = local->Run(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto actual = remote->Run(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectReportsIdentical(*actual, *expected, "remote after a rejected tampered plan");
  }
  EXPECT_EQ(server->stats().plan_unknown_replies, 0u);
}

// A cheap plan per seed: mcf at two variants. Each seed is its own cache key.
NvxBuilder SmallPlanBuilder(uint64_t seed) {
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[3]).Variants(2).Seed(seed);
  return builder;
}

// The executor's cache is bounded in bytes, not by an entry count: 96 small
// plans cycled twice in the same order stay cached. A 64-entry LRU would
// evict each plan before its reuse.
TEST(ExecutorTest, WorkingSetBeyondSixtyFourPlansStaysCached) {
  auto server = std::make_shared<ExecutorServer>();
  const Endpoint endpoint = net::LoopbackEndpoint(server, "solo");
  std::vector<std::unique_ptr<net::RemoteBackend>> backends;
  for (uint64_t seed = 1; seed <= 96; ++seed) {
    auto plan = SmallPlanBuilder(seed).PlanVariants();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto shared = std::make_shared<const api::VariantPlan>(*std::move(plan));
    backends.push_back(std::make_unique<net::RemoteBackend>(
        shared, api::ShardMemberGroups(shared->n_variants(), 1), std::vector<Endpoint>{endpoint},
        RemoteOptions{}));
  }

  for (auto& backend : backends) {
    ASSERT_TRUE(backend->Run({}).ok());
  }
  const net::ExecutorStats first = server->stats();
  for (auto& backend : backends) {
    ASSERT_TRUE(backend->Run({}).ok());
  }
  const net::ExecutorStats both = server->stats();

  EXPECT_EQ(both.plan_unknown_replies - first.plan_unknown_replies, 0u);
  const uint64_t fills = both.requests - both.plan_cache_hits - both.plan_unknown_replies;
  EXPECT_EQ(fills, 96u) << "each plan decoded and analysed once";
  EXPECT_EQ(server->plan_cache_stats().entries, 96u);
}

// Under a small byte budget, LRU eviction keeps the held bytes within it.
// A plan larger than the whole budget still runs, bit-identical to its
// local session, but is never kept: each later key-only request for it is
// answered kPlanUnknown and resent with the plan.
TEST(ExecutorTest, PlanCacheStaysWithinItsByteBudget) {
  auto probe = SmallPlanBuilder(1).PlanVariants();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const size_t budget = 5 * net::EncodeVariantPlan(*probe).size() / 2;  // about two plans
  auto server = std::make_shared<ExecutorServer>(net::ExecutorOptions{.plan_cache_bytes = budget});
  const Endpoint endpoint = net::LoopbackEndpoint(server, "solo");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto session = SmallPlanBuilder(seed).Remote({endpoint}).Build();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session->Run().ok());
    const api::PlanCacheStats cache = server->plan_cache_stats();
    EXPECT_LE(cache.weight, budget) << "after seed " << seed;
    EXPECT_GE(cache.entries, 1u) << "after seed " << seed;
  }
  const api::PlanCacheStats before = server->plan_cache_stats();
  EXPECT_GT(before.evictions, 0u);

  auto big = PoisonTargetBuilder().PlanVariants();
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  ASSERT_GT(net::EncodeVariantPlan(*big).size(), budget);
  auto log = std::make_shared<PlanLog>();
  auto local = PoisonTargetBuilder().Build();
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto remote = PoisonTargetBuilder().Remote({RecordedEndpoint(server, log)}).Build();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  for (uint64_t seed : {5u, 6u}) {
    api::RunRequest request;
    request.workload_seed = seed;
    auto expected = local->Run(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto actual = remote->Run(request);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectReportsIdentical(*actual, *expected, "over-budget plan vs local");
    const api::PlanCacheStats after = server->plan_cache_stats();
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_EQ(after.weight, before.weight);
    EXPECT_EQ(after.evictions, before.evictions);
  }
  // The first run carries the plan; the second names it by key, is answered
  // kPlanUnknown and resends it.
  EXPECT_EQ(log->Take(), (std::vector<bool>{true, false, true}));
  EXPECT_EQ(server->stats().plan_unknown_replies, 1u);
}

// ---------------------------------------------------------------------------
// Fault injection: every fault terminates with a definite Status.
// ---------------------------------------------------------------------------

Endpoint DeadEndpoint(std::string name) {
  Endpoint endpoint;
  endpoint.name = std::move(name);
  endpoint.dial = [] { return StatusOr<std::unique_ptr<support::Socket>>(
      Unavailable("executor process is gone")); };
  return endpoint;
}

// Dials succeed but the peer never answers: a hung executor.
Endpoint BlackHoleEndpoint(std::string name) {
  Endpoint endpoint;
  endpoint.name = std::move(name);
  // The server ends stay alive (captured) so the client blocks on recv
  // rather than observing a close.
  auto held = std::make_shared<std::vector<std::unique_ptr<support::Socket>>>();
  endpoint.dial = [held]() -> StatusOr<std::unique_ptr<support::Socket>> {
    auto [client, server] = support::LoopbackSocketPair();
    held->push_back(std::move(server));
    return std::move(client);
  };
  return endpoint;
}

// Replies with pre-baked bytes regardless of what was sent: consumes the
// request frame, sends the script, then closes — a malfunctioning executor.
struct ScriptedServers {
  std::mutex mu;
  std::vector<std::thread> threads;
  ~ScriptedServers() {
    for (auto& thread : threads) {
      thread.join();
    }
  }
};

Endpoint ScriptedEndpoint(std::string name, std::string reply_bytes) {
  auto holder = std::make_shared<ScriptedServers>();
  Endpoint endpoint;
  endpoint.name = std::move(name);
  endpoint.dial = [holder, reply_bytes]() -> StatusOr<std::unique_ptr<support::Socket>> {
    auto [client, server] = support::LoopbackSocketPair();
    std::shared_ptr<support::Socket> served = std::move(server);
    std::lock_guard<std::mutex> lock(holder->mu);
    holder->threads.emplace_back([served, reply_bytes] {
      (void)net::ReadFrame(*served);  // consume the request
      if (!reply_bytes.empty()) {
        (void)served->SendAll(reply_bytes.data(), reply_bytes.size());
      }
      served->Close();
    });
    return std::move(client);
  };
  return endpoint;
}

RemoteOptions FastFail() {
  RemoteOptions options;
  options.timeout_ms = 200;
  options.max_attempts = 2;
  options.backoff_ms = 1;
  options.unhealthy_cooldown_ms = 0;
  return options;
}

TEST(FaultTest, AllExecutorsDeadIsDefiniteUnavailable) {
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 2),
                             {DeadEndpoint("dead-0"), DeadEndpoint("dead-1")}, FastFail());
  auto report = backend.Run({});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
}

TEST(FaultTest, DeadExecutorFailsOverToHealthyOne) {
  auto server = std::make_shared<ExecutorServer>();
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 2),
                             {DeadEndpoint("dead"), net::LoopbackEndpoint(server, "live")},
                             FastFail());
  auto report = backend.Run({});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, NvxOutcome::kDetected);  // the fixture injects one
}

TEST(FaultTest, HungExecutorTimesOutDefinitely) {
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  RemoteOptions options = FastFail();
  options.max_attempts = 1;
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 1),
                             {BlackHoleEndpoint("hung")}, options);
  auto report = backend.Run({});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FaultTest, TruncatedReplyFrameIsDefiniteError) {
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  // Half a frame header, then the stream closes.
  std::string truncated = net::EncodeFrame(Frame{MessageType::kRunReply, 1, "x"});
  truncated.resize(10);
  RemoteOptions options = FastFail();
  options.max_attempts = 1;
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 1),
                             {ScriptedEndpoint("truncating", truncated)}, options);
  auto report = backend.Run({});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
}

TEST(FaultTest, VersionMismatchIsDefiniteError) {
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  std::string bytes = net::EncodeFrame(Frame{MessageType::kRunReply, 1, ""});
  bytes[4] = 9;  // a future wire version
  RemoteOptions options = FastFail();
  options.max_attempts = 1;
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 1),
                             {ScriptedEndpoint("future-version", bytes)}, options);
  auto report = backend.Run({});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FaultTest, ExecutorKilledMidRunRetriesElsewhere) {
  auto victim = std::make_shared<ExecutorServer>();
  auto survivor = std::make_shared<ExecutorServer>();
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(4).Seed(47);
  RemoteOptions options;
  options.unhealthy_cooldown_ms = 60000;  // keep the victim deprioritized
  auto session = builder
                     .Remote({net::LoopbackEndpoint(victim, "victim"),
                              net::LoopbackEndpoint(survivor, "survivor")},
                             options)
                     .Build();
  ASSERT_TRUE(session.ok());

  // Kill the victim while runs are in flight; every session must still
  // complete with a definite result (success via retry on the survivor).
  std::thread killer([&] { victim->Stop(); });
  for (int i = 0; i < 8; ++i) {
    auto report = session->Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->outcome, NvxOutcome::kOk);
  }
  killer.join();
}

TEST(FaultTest, StoppedExecutorRecoversAfterRestart) {
  auto server = std::make_shared<ExecutorServer>();
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 1),
                             {net::LoopbackEndpoint(server, "cycled")}, FastFail());
  ASSERT_TRUE(backend.Run({}).ok());

  server->Stop();
  auto down = backend.Run({});
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);

  server->Start();
  auto up = backend.Run({});  // cooldown 0: the restarted daemon is re-probed
  ASSERT_TRUE(up.ok()) << up.status().ToString();
}

// A pooled connection the executor closed is redialed once for free: the
// run succeeds and the endpoint is not demoted. Over loopback the send on
// the stale connection fails; over TCP the send succeeds and the close
// shows as end-of-stream before the reply's first byte.
TEST(FaultTest, StalePooledConnectionIsRedialed) {
  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  auto server = std::make_shared<ExecutorServer>();
  auto bystander = std::make_shared<ExecutorServer>();
  auto backend = BackendPreferring(plan, net::LoopbackEndpoint(server, "cycled"),
                                   net::LoopbackEndpoint(bystander, "bystander"), FastFail());
  ASSERT_TRUE(backend->Run({}).ok());
  server->Stop();
  server->Start();
  auto again = backend->Run({});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(backend->Run({}).ok());  // routed by health: a demoted endpoint comes last
  EXPECT_EQ(bystander->stats().requests, 0u);

  ExecutorServer tcp;
  if (!tcp.ListenTcp(0).ok()) {
    GTEST_SKIP() << "cannot bind a TCP socket in this environment";
  }
  const uint16_t port = tcp.port();
  auto tcp_backend = BackendPreferring(plan, net::TcpEndpoint("127.0.0.1", port),
                                       net::LoopbackEndpoint(bystander, "bystander"), FastFail());
  ASSERT_TRUE(tcp_backend->Run({}).ok());
  tcp.Stop();
  tcp.Start();
  ASSERT_TRUE(tcp.ListenTcp(port).ok());
  const uint64_t accepted = tcp.stats().connections_accepted;
  auto tcp_again = tcp_backend->Run({});
  ASSERT_TRUE(tcp_again.ok()) << tcp_again.status().ToString();
  EXPECT_EQ(tcp.stats().connections_accepted, accepted + 1);  // the redial
  ASSERT_TRUE(tcp_backend->Run({}).ok());
  EXPECT_EQ(bystander->stats().requests, 0u);
}

// RemoteOptions::timeout_ms is one deadline for the whole reply: a peer that
// trickles bytes faster than the timeout cannot stretch it.
TEST(FaultTest, TricklingExecutorHitsTheRequestDeadline) {
  support::TcpListener listener;
  if (!listener.Listen(0).ok()) {
    GTEST_SKIP() << "cannot bind a TCP socket in this environment";
  }
  std::atomic<bool> done{false};
  std::thread trickler([&listener, &done] {
    auto accepted = listener.Accept();
    if (!accepted.ok()) {
      return;
    }
    std::unique_ptr<support::Socket> peer = std::move(*accepted);
    (void)net::ReadFrame(*peer);  // the request
    // A well-formed reply frame, one byte every 50 ms.
    const std::string reply =
        net::EncodeFrame(Frame{MessageType::kRunReply, 1, std::string(64, 'x')});
    for (size_t i = 0; i < reply.size() && !done.load(); ++i) {
      if (!peer->SendAll(&reply[i], 1).ok()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  auto plan = std::make_shared<const api::VariantPlan>(PlanFixture());
  RemoteOptions options = FastFail();  // 200 ms
  options.max_attempts = 1;
  net::RemoteBackend backend(plan, api::ShardMemberGroups(plan->n_variants(), 1),
                             {net::TcpEndpoint("127.0.0.1", listener.port())}, options);
  const auto start = std::chrono::steady_clock::now();
  auto report = backend.Run({});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  done = true;
  listener.Close();
  trickler.join();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded) << report.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(options.timeout_ms + 200));
}

// ---------------------------------------------------------------------------
// TCP transport: the same plane over real sockets.
// ---------------------------------------------------------------------------

TEST(TcpTest, RemoteSessionOverRealSockets) {
  auto server = std::make_shared<ExecutorServer>();
  Status listening = server->ListenTcp(0);
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind a TCP socket in this environment: "
                 << listening.ToString();
  }
  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(3).Seed(53);
  auto remote_session =
      builder.Remote({net::TcpEndpoint("127.0.0.1", server->port())}).Build();
  ASSERT_TRUE(remote_session.ok());
  auto remote = remote_session->Run();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  NvxBuilder local_builder;
  local_builder.Benchmark(workload::Spec2006()[0]).Variants(3).Seed(53);
  auto local_session = local_builder.Build();
  ASSERT_TRUE(local_session.ok());
  auto local = local_session->Run();
  ASSERT_TRUE(local.ok());
  ExpectReportsIdentical(*remote, *local, "tcp remote vs local");
  server->Stop();
}

size_t OpenFdCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// A long-running daemon serves one connection per session. Finished
// connections must be joined and closed as the server goes, not kept until
// Stop(): after thousands of sequential sessions, descriptors are back near
// where they started.
TEST(TcpTest, SequentialSessionsDoNotLeakConnections) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to count descriptors with";
  }
  ExecutorServer server;
  Status listening = server.ListenTcp(0);
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind a TCP socket in this environment: "
                 << listening.ToString();
  }
  const size_t fds_before = OpenFdCount();
  constexpr size_t kSessions = 2000;
  for (size_t i = 0; i < kSessions; ++i) {
    auto socket = support::TcpConnect("127.0.0.1", server.port(), 5000);
    ASSERT_TRUE(socket.ok()) << "session " << i << ": " << socket.status().ToString();
    (*socket)->SetRecvTimeout(5000);
    Frame ping;
    ping.type = MessageType::kPing;
    ping.request_id = i;
    ASSERT_TRUE(net::WriteFrame(**socket, ping).ok()) << "session " << i;
    auto pong = net::ReadFrame(**socket);
    ASSERT_TRUE(pong.ok()) << "session " << i << ": " << pong.status().ToString();
    EXPECT_EQ(pong->type, MessageType::kPong);
  }
  // The last connections finish once their serve loops see the close; each
  // accept reaps the ones finished before it.
  constexpr size_t kSlack = 4;
  EXPECT_LE(OpenFdCount(), fds_before + kSlack);
  server.Stop();
  EXPECT_LE(OpenFdCount(), fds_before) << "Stop() left connections open";
}

size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// Peers that connect and never send hold at most kMaxConnections serve
// threads (the rest are closed at accept), and the idle deadline closes the
// held ones; the executor then serves real traffic again.
TEST(ExecutorTest, SilentPeersAreCappedAndClosed) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads with";
  }
  auto server = std::make_shared<ExecutorServer>();
  Status listening = server->ListenTcp(0);
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind a TCP socket in this environment: "
                 << listening.ToString();
  }
  const size_t threads_before = ThreadCount();
  constexpr size_t kPeers = net::kMaxConnections + 32;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<support::Socket>> peers;
  for (size_t i = 0; i < kPeers; ++i) {
    auto peer = support::TcpConnect("127.0.0.1", server->port(), 5000);
    ASSERT_TRUE(peer.ok()) << "peer " << i << ": " << peer.status().ToString();
    peers.push_back(std::move(*peer));
  }
  net::ExecutorStats stats = server->stats();
  while (stats.connections_accepted + stats.connections_refused < kPeers &&
         std::chrono::steady_clock::now() < start + net::kIdleDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = server->stats();
  }
  EXPECT_EQ(stats.connections_accepted, net::kMaxConnections);
  EXPECT_EQ(stats.connections_refused, kPeers - net::kMaxConnections);
  EXPECT_LE(ThreadCount(), threads_before + net::kMaxConnections);

  const support::Deadline closed_by = start + net::kIdleDeadline + std::chrono::seconds(1);
  for (size_t i = 0; i < peers.size(); ++i) {
    char byte;
    auto got = peers[i]->RecvSome(&byte, 1, closed_by);
    ASSERT_FALSE(got.ok()) << "peer " << i << " received a byte";
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
        << "peer " << i << " still open: " << got.status().ToString();
  }
  EXPECT_EQ(server->stats().deadline_closes, net::kMaxConnections);
  peers.clear();

  NvxBuilder builder;
  builder.Benchmark(workload::Spec2006()[0]).Variants(3).Seed(67);
  auto session = builder.Remote({net::TcpEndpoint("127.0.0.1", server->port())}).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

// Thousands of runs from several callers over pooled TCP connections: the
// dispatcher and both executors stay within fixed thread and descriptor
// bounds throughout, and sampled reports match a local Shards(2) session.
TEST(TcpTest, SoakKeepsThreadsAndFdsBounded) {
  if (!std::filesystem::exists("/proc/self/fd") || !std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self to count descriptors and threads with";
  }
  ExecutorServer first;
  ExecutorServer second;
  if (!first.ListenTcp(0).ok() || !second.ListenTcp(0).ok()) {
    GTEST_SKIP() << "cannot bind TCP sockets in this environment";
  }
  const auto configure = [](NvxBuilder& b) {
    b.Benchmark(workload::Spec2006()[0]).Variants(3).Seed(71).Shards(2);
  };
  NvxBuilder remote_builder;
  configure(remote_builder);
  auto remote = remote_builder
                    .Remote({net::TcpEndpoint("127.0.0.1", first.port()),
                             net::TcpEndpoint("127.0.0.1", second.port())})
                    .Build();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  NvxBuilder local_builder;
  configure(local_builder);
  auto local = local_builder.Build();
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  constexpr size_t kCallers = 4;
  constexpr size_t kRunsPerCaller = 2500;
  constexpr size_t kSampleEvery = 250;
  // Per executor, at most one connection per caller is ever open; the slack
  // covers serve threads and descriptors on their way out.
  const size_t thread_bound = ThreadCount() + kCallers + 2 * kCallers + 2;
  const size_t fd_bound = OpenFdCount() + 2 * 2 * kCallers + 4;

  std::mutex mu;
  std::vector<std::pair<api::RunRequest, RunReport>> samples;
  std::vector<std::string> errors;
  size_t max_threads = 0;
  size_t max_fds = 0;
  auto caller = [&](size_t c) {
    for (size_t i = 0; i < kRunsPerCaller; ++i) {
      api::RunRequest request;
      request.workload_seed = c * kRunsPerCaller + i;
      auto report = remote->Run(request);
      std::lock_guard<std::mutex> lock(mu);
      if (!report.ok()) {
        errors.push_back(report.status().ToString());
        return;
      }
      if (i % kSampleEvery == 0) {
        samples.emplace_back(request, std::move(*report));
        max_threads = std::max(max_threads, ThreadCount());
        max_fds = std::max(max_fds, OpenFdCount());
      }
    }
  };
  std::vector<std::thread> callers;
  for (size_t c = 1; c < kCallers; ++c) {
    callers.emplace_back(caller, c);
  }
  caller(0);
  for (auto& thread : callers) {
    thread.join();
  }

  ASSERT_TRUE(errors.empty()) << errors.size() << " failed run(s), first: " << errors[0];
  EXPECT_LE(max_threads, thread_bound);
  EXPECT_LE(max_fds, fd_bound);
  EXPECT_LE(ThreadCount(), thread_bound);
  EXPECT_LE(OpenFdCount(), fd_bound);
  ASSERT_EQ(samples.size(), kCallers * kRunsPerCaller / kSampleEvery);
  for (const auto& [request, report] : samples) {
    auto expected = local->Run(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ExpectReportsIdentical(report, *expected, "pooled tcp vs local Shards(2)");
  }
  const net::ExecutorStats a = first.stats();
  const net::ExecutorStats b = second.stats();
  EXPECT_EQ(a.requests + b.requests, 2 * kCallers * kRunsPerCaller);
  EXPECT_LE(a.connections_accepted + b.connections_accepted, 2 * kCallers);
}

}  // namespace
}  // namespace bunshin
