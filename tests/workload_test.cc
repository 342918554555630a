// Tests for the workload catalog and trace generation invariants.
#include <gtest/gtest.h>

#include <cstring>

#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/nxe/engine.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

TEST(WorkloadCatalogTest, SuitesMatchThePaper) {
  EXPECT_EQ(workload::Spec2006().size(), 19u);     // the 19 C/C++ SPEC programs
  EXPECT_EQ(workload::Splash2x().size(), 13u);     // all of SPLASH-2x
  EXPECT_EQ(workload::Parsec().size(), 13u);       // all of PARSEC
  EXPECT_EQ(workload::ParsecSupported().size(), 6u);  // §5.1: six run
}

TEST(WorkloadCatalogTest, CalibratedAveragesNearPaper) {
  double asan_sum = 0.0;
  double ubsan_sum = 0.0;
  for (const auto& spec : workload::Spec2006()) {
    asan_sum += spec.overheads.asan;
    ubsan_sum += spec.overheads.ubsan;
  }
  EXPECT_NEAR(asan_sum / 19.0, 1.07, 0.05);   // §5.4: 107%
  EXPECT_NEAR(ubsan_sum / 19.0, 2.28, 0.10);  // §5.5: 228%
}

TEST(WorkloadCatalogTest, OutliersAndExceptionsPresent) {
  EXPECT_GT(workload::FindBenchmark("hmmer")->hottest_share, 0.9);
  EXPECT_GT(workload::FindBenchmark("lbm")->hottest_share, 0.9);
  EXPECT_FALSE(workload::FindBenchmark("gcc")->overheads.msan_supported);
  EXPECT_EQ(workload::FindBenchmark("nonexistent"), nullptr);
}

// The N-version invariant: all variants of a benchmark must issue the same
// sync-relevant syscall sequence regardless of scale/jitter/sanitizers.
TEST(TracegenTest, SyncRelevantSequenceIdenticalAcrossVariants) {
  const auto& bench = workload::Spec2006()[0];
  workload::VariantSpec a;
  a.jitter_seed = 1;
  workload::VariantSpec b;
  b.jitter_seed = 99;
  b.compute_scale = 2.5;
  b.sanitizers = {san::SanitizerId::kASan};

  const auto ta = workload::BuildTrace(bench, a, 5);
  const auto tb = workload::BuildTrace(bench, b, 5);
  ASSERT_EQ(ta.threads.size(), tb.threads.size());
  for (size_t t = 0; t < ta.threads.size(); ++t) {
    std::vector<sc::SyscallRecord> sa;
    std::vector<sc::SyscallRecord> sb;
    for (const auto& act : ta.threads[t].actions) {
      const sc::SyscallRecord* rec =
          act.kind == nxe::ActionKind::kSyscall ? &ta.threads[t].RecordOf(act) : nullptr;
      if (rec != nullptr && sc::IsSyncRelevant(rec->no)) {
        sa.push_back(*rec);
      }
    }
    for (const auto& act : tb.threads[t].actions) {
      const sc::SyscallRecord* rec =
          act.kind == nxe::ActionKind::kSyscall ? &tb.threads[t].RecordOf(act) : nullptr;
      if (rec != nullptr && sc::IsSyncRelevant(rec->no)) {
        sb.push_back(*rec);
      }
    }
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_TRUE(sa[i].SameRequest(sb[i])) << "thread " << t << " index " << i;
    }
  }
}

TEST(TracegenTest, SanitizerVariantsCarryRuntimeSyscalls) {
  const auto& bench = workload::Spec2006()[1];
  workload::VariantSpec plain;
  workload::VariantSpec asan;
  asan.sanitizers = {san::SanitizerId::kASan};
  const auto tp = workload::BuildTrace(bench, plain, 5);
  const auto ta = workload::BuildTrace(bench, asan, 5);
  EXPECT_TRUE(tp.pre_main.empty());
  EXPECT_FALSE(ta.pre_main.empty());
  EXPECT_FALSE(ta.post_exit.empty());
  // The ASan variant has extra in-execution mmap/madvise actions.
  EXPECT_GT(ta.TotalActions(), tp.TotalActions());
}

TEST(TracegenTest, SameSeedSameTrace) {
  const auto& bench = workload::Splash2x()[0];
  workload::VariantSpec spec;
  const auto a = workload::BuildTrace(bench, spec, 5);
  const auto b = workload::BuildTrace(bench, spec, 5);
  ASSERT_EQ(a.TotalActions(), b.TotalActions());
  EXPECT_DOUBLE_EQ(a.TotalComputeCost(), b.TotalComputeCost());
}

TEST(TracegenTest, JitterSeedChangesOnlyCompute) {
  const auto& bench = workload::Spec2006()[2];
  workload::VariantSpec a;
  a.jitter_seed = 1;
  workload::VariantSpec b;
  b.jitter_seed = 2;
  const auto ta = workload::BuildTrace(bench, a, 5);
  const auto tb = workload::BuildTrace(bench, b, 5);
  EXPECT_EQ(ta.TotalActions(), tb.TotalActions());
  EXPECT_NE(ta.TotalComputeCost(), tb.TotalComputeCost());
}

TEST(TracegenTest, MultithreadedTraceHasLocksAndBarriers) {
  const auto& bench = workload::Splash2x()[9];  // radiosity
  workload::VariantSpec spec;
  const auto trace = workload::BuildTrace(bench, spec, 5);
  ASSERT_EQ(trace.threads.size(), 4u);
  size_t locks = 0;
  size_t barriers = 0;
  for (const auto& thread : trace.threads) {
    for (const auto& act : thread.actions) {
      locks += act.kind == nxe::ActionKind::kLockAcquire ? 1 : 0;
      barriers += act.kind == nxe::ActionKind::kBarrier ? 1 : 0;
    }
  }
  EXPECT_GT(locks, 0u);
  EXPECT_EQ(barriers, bench.barriers * trace.threads.size());
}

TEST(TracegenTest, ServerTraceRequestStructure) {
  workload::ServerSpec server;
  server.requests = 8;
  server.file_kb = 1024;
  workload::VariantSpec spec;
  const auto trace = workload::BuildServerTrace(server, spec, 5);
  size_t writes = 0;
  size_t accepts = 0;
  const nxe::ThreadTrace& thread = trace.threads[0];
  for (const auto& act : thread.actions) {
    if (act.kind != nxe::ActionKind::kSyscall) {
      continue;
    }
    writes += thread.RecordOf(act).no == sc::Sysno::kWrite ? 1 : 0;
    accepts += thread.RecordOf(act).no == sc::Sysno::kAccept ? 1 : 0;
  }
  EXPECT_EQ(accepts, 8u);
  EXPECT_EQ(writes, 8u * 16u);  // 16 chunks per 1MB response
}

TEST(TracegenTest, IdenticalVariantsRunCleanUnderEngine) {
  // Property sweep: every supported benchmark must complete with no false
  // positives under both modes (the §5.1 robustness experiment).
  nxe::Engine strict(nxe::EngineConfig{});
  nxe::EngineConfig sel_config;
  sel_config.mode = nxe::LockstepMode::kSelective;
  nxe::Engine selective(sel_config);
  auto check = [&](const workload::BenchmarkSpec& spec) {
    auto variants = workload::BuildIdenticalVariants(spec, 3, 8);
    auto r1 = strict.Run(variants);
    auto r2 = selective.Run(variants);
    ASSERT_TRUE(r1.ok()) << spec.name;
    ASSERT_TRUE(r2.ok()) << spec.name;
    EXPECT_TRUE(r1->completed) << spec.name;
    EXPECT_TRUE(r2->completed) << spec.name;
  };
  for (const auto& spec : workload::Spec2006()) {
    check(spec);
  }
  for (const auto& spec : workload::Splash2x()) {
    check(spec);
  }
  for (const auto& spec : workload::ParsecSupported()) {
    check(spec);
  }
}

// --- Golden trace fingerprints ----------------------------------------------
//
// FNV-1a digests over every logical field of the generated traces: per action
// its kind, cost bits and the syscall record / sync id / detector it names;
// per trace its name, compute scale and pre-main/post-exit records. Fields
// are read through the ThreadTrace accessors, so the digests pin the traces'
// content independently of the in-memory layout. Any change to a generator's
// RNG draw order shows up here first.

class TraceDigest {
 public:
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Record(const sc::SyscallRecord& rec) {
    U64(static_cast<uint64_t>(rec.no));
    for (int64_t arg : rec.args) {
      U64(static_cast<uint64_t>(arg));
    }
    U64(rec.payload_digest);
    U64(static_cast<uint64_t>(rec.result));
  }
  void Trace(const nxe::VariantTrace& trace) {
    Str(trace.name);
    F64(trace.compute_scale);
    U64(trace.pre_main.size());
    for (const auto& rec : trace.pre_main) {
      Record(rec);
    }
    U64(trace.post_exit.size());
    for (const auto& rec : trace.post_exit) {
      Record(rec);
    }
    U64(trace.threads.size());
    for (const nxe::ThreadTrace& thread : trace.threads) {
      U64(thread.actions.size());
      for (const nxe::ThreadAction& action : thread.actions) {
        U64(static_cast<uint64_t>(action.kind));
        F64(action.cost);
        switch (action.kind) {
          case nxe::ActionKind::kSyscall:
            Record(thread.RecordOf(action));
            break;
          case nxe::ActionKind::kLockAcquire:
          case nxe::ActionKind::kLockRelease:
          case nxe::ActionKind::kBarrier:
            U64(thread.SyncIdOf(action));
            break;
          case nxe::ActionKind::kDetect:
            Str(thread.DetectorOf(action));
            break;
          default:
            break;
        }
      }
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::vector<workload::BenchmarkSpec> RunnablePrograms() {
  std::vector<workload::BenchmarkSpec> programs = workload::Spec2006();
  programs.insert(programs.end(), workload::Splash2x().begin(), workload::Splash2x().end());
  for (const auto& spec : workload::ParsecSupported()) {
    programs.push_back(spec);
  }
  return programs;
}

enum class GoldenStrategy { kClones, kCheckAsan, kSanitizers, kUbsanSub };

api::VariantPlan GoldenPlan(const workload::BenchmarkSpec& bench, GoldenStrategy strategy) {
  api::NvxBuilder builder;
  builder.Benchmark(bench).Variants(4);
  switch (strategy) {
    case GoldenStrategy::kClones:
      break;
    case GoldenStrategy::kCheckAsan:
      builder.DistributeChecks(san::SanitizerId::kASan);
      break;
    case GoldenStrategy::kSanitizers:
      builder.DistributeSanitizers(
          {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
      break;
    case GoldenStrategy::kUbsanSub:
      builder.DistributeUbsanSubSanitizers();
      break;
  }
  auto plan = builder.PlanVariants();
  EXPECT_TRUE(plan.ok()) << bench.name << ": " << plan.status().ToString();
  return plan.ok() ? std::move(*plan) : api::VariantPlan{};
}

uint64_t StrategyFingerprint(GoldenStrategy strategy) {
  TraceDigest digest;
  for (const auto& bench : RunnablePrograms()) {
    const api::VariantPlan plan = GoldenPlan(bench, strategy);
    for (uint64_t seed : {1ULL, 7ULL, 301ULL}) {
      for (const auto& spec : plan.specs) {
        digest.Trace(workload::BuildTrace(bench, spec, seed));
      }
    }
  }
  return digest.value();
}

TEST(TraceFingerprintTest, ClonePlans) {
  EXPECT_EQ(StrategyFingerprint(GoldenStrategy::kClones), 0x3C95992D9F1A57AFULL);
}

TEST(TraceFingerprintTest, AsanCheckDistributionPlans) {
  EXPECT_EQ(StrategyFingerprint(GoldenStrategy::kCheckAsan), 0x1994A7B19533DFADULL);
}

TEST(TraceFingerprintTest, SanitizerDistributionPlans) {
  EXPECT_EQ(StrategyFingerprint(GoldenStrategy::kSanitizers), 0x0D9AD78C9484F55BULL);
}

TEST(TraceFingerprintTest, UbsanSubSanitizerPlans) {
  EXPECT_EQ(StrategyFingerprint(GoldenStrategy::kUbsanSub), 0x160DA2D48781F7D2ULL);
}

TEST(TraceFingerprintTest, BaselineTraces) {
  TraceDigest digest;
  for (const auto& bench : RunnablePrograms()) {
    for (uint64_t seed : {1ULL, 7ULL, 301ULL}) {
      digest.Trace(workload::BuildTrace(bench, workload::VariantSpec{}, seed));
    }
  }
  EXPECT_EQ(digest.value(), 0xF38A3BD24B0614E6ULL);
}

TEST(TraceFingerprintTest, ServerTraces) {
  workload::VariantSpec instrumented;
  instrumented.name = "asan";
  instrumented.compute_scale = 1.8;
  instrumented.jitter_seed = 77;
  instrumented.sanitizers = {san::SanitizerId::kASan};
  TraceDigest digest;
  for (const char* name : {"lighttpd", "nginx"}) {
    for (size_t file_kb : {size_t{1}, size_t{1024}}) {
      workload::ServerSpec server;
      server.name = name;
      server.threads = std::string(name) == "nginx" ? 4 : 1;
      server.file_kb = file_kb;
      for (uint64_t seed : {1ULL, 7ULL, 301ULL}) {
        digest.Trace(workload::BuildServerTrace(server, workload::VariantSpec{}, seed));
        digest.Trace(workload::BuildServerTrace(server, instrumented, seed));
      }
    }
  }
  EXPECT_EQ(digest.value(), 0xC21C66A54A77EB35ULL);
}

TEST(TraceFingerprintTest, ShardedPlanTracesWithOverlays) {
  TraceDigest digest;
  for (const char* name : {"perlbench", "radiosity"}) {
    auto plan = api::NvxBuilder()
                    .Benchmark(*workload::FindBenchmark(name))
                    .Variants(8)
                    .InjectDetection(3, "__asan_report_load8")
                    .InjectDivergence(6, "exfiltrated")
                    .PlanVariants();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (uint64_t seed : {1ULL, 7ULL, 301ULL}) {
      for (const auto& members : api::ShardMemberGroups(8, 4)) {
        std::vector<nxe::VariantTrace> traces;
        ASSERT_TRUE(api::BuildPlanTraces(*plan, members, seed, &traces).ok());
        for (const auto& trace : traces) {
          digest.Trace(trace);
        }
      }
    }
  }
  EXPECT_EQ(digest.value(), 0x2E61BD8E58822BEDULL);
}

}  // namespace
}  // namespace bunshin
