// Tests for the workload catalog and trace generation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/nxe/engine.h"
#include "src/support/rng.h"
#include "src/workload/funcprofile.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

// Counts operator new calls while g_count_allocs is set (the derive tests
// below); every other allocation passes straight to malloc. Plain builds
// only: under ASan and TSan the runtime's own operator new stays, since ASan
// checks that each block is freed the way it was allocated.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define BUNSHIN_COUNTS_ALLOCS 1
namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    ptr = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&ptr, alignment, size == 0 ? 1 : size) != 0) {
    ptr = nullptr;
  }
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return CountedAlloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return CountedAlloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
#endif

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

// --- Profiled function names ---------------------------------------------------
//
// Check distribution's ground truth is the synthesizer's name rule; the
// coverage proof matches plan names by parsing their index back out.

TEST(ProfiledFunctionNameTest, IndexRoundTripsEveryCatalogProgramsNames) {
  std::vector<workload::BenchmarkSpec> programs = workload::Spec2006();
  programs.insert(programs.end(), workload::Splash2x().begin(), workload::Splash2x().end());
  programs.insert(programs.end(), workload::Parsec().begin(), workload::Parsec().end());
  for (const workload::BenchmarkSpec& bench : programs) {
    const size_t n = workload::ProfiledFunctionCount(bench);
    ASSERT_EQ(n, std::max<size_t>(1, bench.n_functions)) << bench.name;
    const profile::OverheadProfile profile =
        workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 42);
    ASSERT_EQ(profile.functions.size(), n) << bench.name;
    for (size_t i = 0; i < n; ++i) {
      const std::string name = workload::ProfiledFunctionName(bench, i);
      ASSERT_EQ(profile.functions[i].function, name);
      ASSERT_EQ(name, bench.name + "::fn" + std::to_string(i));
      ASSERT_EQ(workload::ProfiledFunctionIndex(bench, name), std::optional<size_t>(i)) << name;
    }
  }
}

TEST(ProfiledFunctionNameTest, ZeroFunctionsStillProfileFn0) {
  workload::BenchmarkSpec bench = *workload::FindBenchmark("mcf");
  bench.n_functions = 0;
  EXPECT_EQ(workload::ProfiledFunctionCount(bench), 1u);
  EXPECT_EQ(workload::ProfiledFunctionName(bench, 0), "mcf::fn0");
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn0"), std::optional<size_t>(0));
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn1"), std::nullopt);
  const profile::OverheadProfile profile =
      workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 42);
  ASSERT_EQ(profile.functions.size(), 1u);
  EXPECT_EQ(profile.functions[0].function, "mcf::fn0");
}

TEST(ProfiledFunctionNameTest, IndexRejectsEveryOtherSpelling) {
  const workload::BenchmarkSpec& bench = *workload::FindBenchmark("mcf");
  ASSERT_EQ(bench.n_functions, 40u);
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn7"), std::optional<size_t>(7));
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn39"), std::optional<size_t>(39));
  for (const std::string name :
       {"mcf::fn07", "mcf::fn00", "mcf::fn+7", "mcf::fn-1", "mcf::fn 7", "mcf::fn7 ",
        "mcf::fn0x7", "mcf::fn7::fn7", "mcf::fn123456789012345678901234567890", "mcf::fn40",
        "mcf::fn18446744073709551615", "mcf::fn18446744073709551616", "bzip2::fn7",
        "mcf2::fn7", "Mcf::fn7", "mcf:fn7", "mcf::Fn7", "xmcf::fn7", "mcf::fn", "mcf", ""}) {
    EXPECT_EQ(workload::ProfiledFunctionIndex(bench, name), std::nullopt) << '"' << name << '"';
  }
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
  workload::TraceTemplate tmpl;
  workload::BuildServerTemplate(server, 5, &tmpl);
  nxe::VariantTrace trace;
  workload::DeriveTrace(tmpl, workload::VariantSpec{}, &trace);
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

size_t BuiltTemplateActions(const workload::TraceTemplate& tmpl) {
  size_t actions = 0;
  for (const nxe::ThreadTrace& thread : tmpl.threads) {
    actions += thread.actions.size();
  }
  return actions;
}

// The plan analyzer bounds a plan's trace shape with TemplateActions before
// any trace exists, so the count must be exactly what the builders build.
TEST(TracegenTest, TemplateActionsCountsTheBuiltTemplate) {
  workload::TraceTemplate tmpl;
  size_t largest = 0;
  for (const auto* suite : {&workload::Spec2006(), &workload::Splash2x(), &workload::Parsec()}) {
    for (const workload::BenchmarkSpec& bench : *suite) {
      workload::BuildTemplate(bench, 7, &tmpl);
      const size_t built = BuiltTemplateActions(tmpl);
      EXPECT_EQ(workload::TemplateActions(bench), static_cast<double>(built)) << bench.name;
      largest = std::max(largest, built);
    }
  }
  EXPECT_EQ(largest, 1552u);  // radiosity
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t file_kb : {size_t{1}, size_t{1024}}) {
      workload::ServerSpec server;
      server.threads = threads;
      server.file_kb = file_kb;
      workload::BuildServerTemplate(server, 7, &tmpl);
      EXPECT_EQ(workload::TemplateActions(server),
                static_cast<double>(BuiltTemplateActions(tmpl)))
          << threads << " thread(s), " << file_kb << " KB";
    }
  }
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
        workload::TraceTemplate tmpl;
        workload::BuildServerTemplate(server, seed, &tmpl);
        for (const workload::VariantSpec& spec : {workload::VariantSpec{}, instrumented}) {
          nxe::VariantTrace trace;
          workload::DeriveTrace(tmpl, spec, &trace);
          digest.Trace(trace);
        }
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

// --- Noise tapes ----------------------------------------------------------------
//
// DeriveTrace reads each variant's jitter from a memoized noise tape. These
// tests hold the tapes to the live stream: a test-local replay of the jitter
// model draws from a live Rng, and every derived action must match it field
// by field. The goldens above cover catalog templates at salts 17 and 29;
// these cover hand-built templates with edge costs, other salts, both
// memory-management settings and lengths past the memo's per-tape cap.

// The jitter model, drawn live: the deviation grows with sqrt(cost) and is
// divided by the variant's scale, plus a rare preemption burst. A segment
// whose cost is <= 0 draws nothing; NaN draws.
double LiveJitter(double cost, double sigma_coeff, double scale, Rng* rng) {
  if (cost <= 0.0) {
    return cost;
  }
  const double sigma_abs = sigma_coeff * std::sqrt(cost) / std::max(1.0, scale);
  double jittered = std::max(0.05 * cost, cost + rng->NextGaussian(0.0, sigma_abs));
  if (rng->NextBool(0.004)) {
    jittered += (60.0 + rng->NextExponential(50.0)) / std::max(1.0, scale);
  }
  return jittered;
}

uint64_t CostBits(double cost) {
  uint64_t bits = 0;
  std::memcpy(&bits, &cost, sizeof(bits));
  return bits;
}

// Checks `derived` against `tmpl` with its jitter replayed live: each
// template action in order, field by field (ThreadAction has padding, so no
// memcmp), skipping the memory-management syscalls derivation inserts.
void ExpectLiveDraws(const workload::TraceTemplate& tmpl, const workload::VariantSpec& spec,
                     const nxe::VariantTrace& derived) {
  Rng rng(spec.jitter_seed * 0x9E3779B97F4A7C15ULL + tmpl.jitter_salt);
  if (tmpl.sprinkle_memory_management) {
    rng.Fork(0xABCD);  // the memory-management stream forks off first
  }
  const std::string what = "jitter_seed " + std::to_string(spec.jitter_seed) + ", salt " +
                           std::to_string(tmpl.jitter_salt);
  EXPECT_EQ(derived.name, spec.name) << what;
  EXPECT_EQ(CostBits(derived.compute_scale), CostBits(spec.compute_scale)) << what;
  ASSERT_EQ(derived.threads.size(), tmpl.threads.size()) << what;
  for (size_t t = 0; t < tmpl.threads.size(); ++t) {
    const nxe::ThreadTrace& src = tmpl.threads[t];
    const std::vector<nxe::ThreadAction>& got = derived.threads[t].actions;
    auto inserted = [&](size_t d) {
      constexpr uint32_t kOwn = nxe::ThreadTrace::kOwnRecord;
      return got[d].kind == nxe::ActionKind::kSyscall && (got[d].arg & kOwn) != 0 &&
             (got[d].arg & ~kOwn) >= src.syscalls.size();
    };
    size_t d = 0;
    for (size_t i = 0; i < src.actions.size(); ++i, ++d) {
      while (d < got.size() && inserted(d)) {
        ++d;
      }
      ASSERT_LT(d, got.size()) << what << ", thread " << t << ", action " << i;
      const nxe::ThreadAction& want = src.actions[i];
      ASSERT_EQ(got[d].kind, want.kind) << what << ", thread " << t << ", action " << i;
      if (want.kind == nxe::ActionKind::kCompute) {
        const double cost = want.arg == workload::TraceTemplate::kJittered
                                ? LiveJitter(want.cost, tmpl.noise_sigma, spec.compute_scale, &rng)
                                : want.cost;
        ASSERT_EQ(CostBits(got[d].cost), CostBits(cost))
            << what << ", thread " << t << ", action " << i << ": " << got[d].cost << " vs "
            << cost;
        ASSERT_EQ(got[d].arg, 0u) << what << ", thread " << t << ", action " << i;
      } else {
        ASSERT_EQ(CostBits(got[d].cost), CostBits(want.cost)) << what << ", thread " << t;
        ASSERT_EQ(got[d].arg, want.arg) << what << ", thread " << t << ", action " << i;
      }
    }
    for (; d < got.size(); ++d) {
      ASSERT_TRUE(inserted(d)) << what << ", thread " << t << ": extra action " << d;
    }
  }
}

// A hand-built template of 1-4 threads with `segments` jittered segments
// spread over them. About one cost in ten is an edge value (zeros,
// negatives, NaN, infinities, extremes); syscalls, lock hold times and
// locks sit between segments, and every thread ends in an exit.
workload::TraceTemplate RandomTemplate(Rng* rng, size_t segments) {
  static const double kEdgeCosts[] = {0.0,
                                      -0.0,
                                      -3.5,
                                      std::numeric_limits<double>::quiet_NaN(),
                                      std::numeric_limits<double>::infinity(),
                                      -std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::denorm_min(),
                                      1e300};
  static const uint64_t kSalts[] = {0, 5, 17, 29, 1ULL << 40};
  workload::TraceTemplate tmpl;
  tmpl.threads.resize(1 + rng->NextBounded(4));
  tmpl.noise_sigma = 0.01 + 0.5 * rng->NextDouble();
  tmpl.jitter_salt = rng->NextBool(0.5) ? kSalts[rng->NextBounded(std::size(kSalts))]
                                        : rng->NextU64();
  tmpl.sprinkle_memory_management = rng->NextBool(0.5);
  for (size_t s = 0; s < segments; ++s) {
    nxe::ThreadTrace& thread = tmpl.threads[rng->NextBounded(tmpl.threads.size())];
    const double cost = rng->NextBool(0.1) ? kEdgeCosts[rng->NextBounded(std::size(kEdgeCosts))]
                                           : 1.0 + 500.0 * rng->NextDouble();
    thread.Append({cost, workload::TraceTemplate::kJittered, nxe::ActionKind::kCompute});
    switch (rng->NextBounded(3)) {
      case 0: {
        sc::SyscallRecord rec;
        rec.no = sc::Sysno::kWrite;
        rec.args = {1, static_cast<int64_t>(s), 0, 0, 0, 0};
        thread.AppendSyscall(rec);
        break;
      }
      case 1: {
        const auto lock = static_cast<uint32_t>(rng->NextBounded(8));
        thread.Append(nxe::ThreadAction::Lock(lock));
        thread.Append(nxe::ThreadAction::Compute(2.5));
        thread.Append(nxe::ThreadAction::Unlock(lock));
        break;
      }
      default:
        break;
    }
  }
  for (nxe::ThreadTrace& thread : tmpl.threads) {
    thread.Append(nxe::ThreadAction::Exit());
  }
  return tmpl;
}

// A variant with scale below or above 1 and 0-3 sanitizers. Half the jitter
// seeds come from a small pool, so streams meet templates of other lengths.
workload::VariantSpec RandomSpec(Rng* rng) {
  workload::VariantSpec spec;
  spec.name = "v" + std::to_string(rng->NextBounded(100));
  spec.compute_scale =
      rng->NextBool(0.5) ? 0.2 + 0.8 * rng->NextDouble() : 1.0 + 3.0 * rng->NextDouble();
  spec.jitter_seed = rng->NextBool(0.5) ? 1000 + rng->NextBounded(8) : rng->NextU64();
  const auto& catalog = san::AllSanitizers();
  for (size_t n = rng->NextBounded(4); n > 0; --n) {
    spec.sanitizers.push_back(catalog[rng->NextBounded(catalog.size())].id);
  }
  return spec;
}

TEST(NoiseTapeTest, DerivedTracesMatchLiveDraws) {
  Rng rng(0x7A9E);
  for (int round = 0; round < 200; ++round) {
    const size_t segments = round % 10 == 9 ? workload::kNoiseTapeDraws + 1 + rng.NextBounded(2000)
                                            : rng.NextBounded(1500);
    const workload::TraceTemplate tmpl = RandomTemplate(&rng, segments);
    for (int v = 0; v < 3; ++v) {
      const workload::VariantSpec spec = RandomSpec(&rng);
      nxe::VariantTrace trace;
      workload::DeriveTrace(tmpl, spec, &trace);
      ExpectLiveDraws(tmpl, spec, trace);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// Several threads derive from a cold memo at once. Each stream gets a short
// template and a longer one, so its tape is replaced while other threads
// read the short one; half the threads take the long template first.
TEST(NoiseTapeTest, ConcurrentDerivesFromAColdMemoMatchLiveDraws) {
  Rng rng(0xC01D);
  const workload::TraceTemplate short_tmpl = RandomTemplate(&rng, 300);
  workload::TraceTemplate long_tmpl = RandomTemplate(&rng, 2500);
  long_tmpl.jitter_salt = short_tmpl.jitter_salt;
  long_tmpl.sprinkle_memory_management = short_tmpl.sprinkle_memory_management;
  std::vector<workload::VariantSpec> specs;
  for (uint64_t i = 0; i < 24; ++i) {
    specs.push_back(RandomSpec(&rng));
    specs.back().jitter_seed = 0xC01D'0000'0000'0000ULL + i;  // no other test uses these
  }

  constexpr size_t kThreads = 4;
  std::vector<std::vector<nxe::VariantTrace>> traces(
      kThreads, std::vector<nxe::VariantTrace>(2 * specs.size()));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        for (size_t j = 0; j < 2; ++j) {
          const bool take_long = (j == 0) == (k % 2 == 1);
          workload::DeriveTrace(take_long ? long_tmpl : short_tmpl, specs[i],
                                &traces[k][2 * i + (take_long ? 1 : 0)]);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t k = 0; k < kThreads; ++k) {
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectLiveDraws(short_tmpl, specs[i], traces[k][2 * i]);
      ExpectLiveDraws(long_tmpl, specs[i], traces[k][2 * i + 1]);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// --- Tape bounds ------------------------------------------------------------------
//
// A derive starts from whatever tape the memo holds for its stream and reads
// no entry past that tape's end: a template that draws more makes it count
// the template's draws, fetch a longer tape and go on at the same draw and
// burst. Each test below sets up a memo for a stream no other test uses and
// checks the derived traces against the live stream.

// A one-thread template of `draws` jittered segments, each followed by a
// syscall, under `like`'s salt and memory-management setting.
workload::TraceTemplate DrawingTemplate(size_t draws, const workload::TraceTemplate& like) {
  workload::TraceTemplate tmpl;
  tmpl.threads.resize(1);
  tmpl.noise_sigma = 0.3;
  tmpl.jitter_salt = like.jitter_salt;
  tmpl.sprinkle_memory_management = like.sprinkle_memory_management;
  for (size_t d = 0; d < draws; ++d) {
    tmpl.threads[0].Append({40.0 + static_cast<double>(d % 7), workload::TraceTemplate::kJittered,
                            nxe::ActionKind::kCompute});
    sc::SyscallRecord rec;
    rec.no = sc::Sysno::kWrite;
    rec.args = {1, static_cast<int64_t>(d), 0, 0, 0, 0};
    tmpl.threads[0].AppendSyscall(rec);
  }
  tmpl.threads[0].Append(nxe::ThreadAction::Exit());
  return tmpl;
}

bool DrawsJitter(const nxe::ThreadAction& a) {
  return a.kind == nxe::ActionKind::kCompute && a.arg == workload::TraceTemplate::kJittered &&
         !(a.cost <= 0.0);
}

// The index of the first draw of `spec`'s stream under `tmpl`'s key, from
// draw `from` on, that a preemption burst follows.
size_t FirstBurstDraw(const workload::TraceTemplate& tmpl, const workload::VariantSpec& spec,
                      size_t from) {
  Rng rng(spec.jitter_seed * 0x9E3779B97F4A7C15ULL + tmpl.jitter_salt);
  if (tmpl.sprinkle_memory_management) {
    rng.Fork(0xABCD);
  }
  for (size_t d = 0;; ++d) {
    rng.NextGaussianFactors();
    if (rng.NextBool(0.004)) {
      rng.NextExponential(50.0);
      if (d >= from) {
        return d;
      }
    }
  }
}

// Derives `tmpl` for `spec` and checks the trace against the live stream.
void ExpectDeriveMatchesLiveDraws(const workload::TraceTemplate& tmpl,
                                  const workload::VariantSpec& spec) {
  nxe::VariantTrace trace;
  workload::DeriveTrace(tmpl, spec, &trace);
  ExpectLiveDraws(tmpl, spec, trace);
}

TEST(NoiseTapeTest, DeriveFromAColdMemoMatchesLiveDraws) {
  Rng rng(0xC07D);
  for (uint64_t i = 0; i < 8; ++i) {
    workload::VariantSpec spec = RandomSpec(&rng);
    spec.jitter_seed = 0xC07D'0000'0000'0000ULL + i;  // no other test uses these
    ExpectDeriveMatchesLiveDraws(RandomTemplate(&rng, 200 + 300 * i), spec);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// The memo's tape for the stream holds exactly the draws before a segment
// that follows a memory-management insert, mid-thread: the longer derive
// runs out of it as the run after the insert starts.
TEST(NoiseTapeTest, DeriveRunsOutOfAShorterTapeRightAfterAMemoryManagementInsert) {
  Rng rng(0x5407);
  workload::TraceTemplate tmpl = RandomTemplate(&rng, 1200);
  tmpl.sprinkle_memory_management = true;
  workload::VariantSpec spec;
  spec.name = "asan";
  spec.compute_scale = 1.8;
  spec.jitter_seed = 0x5407'0000'0000'0000ULL;  // no other test uses it
  spec.sanitizers = {san::SanitizerId::kASan};

  // The insert positions depend on the stream and the thread lengths only:
  // a twin whose segments draw nothing shows them without filling the memo.
  workload::TraceTemplate twin = tmpl;
  for (nxe::ThreadTrace& thread : twin.threads) {
    for (nxe::ThreadAction& a : thread.actions) {
      if (a.kind == nxe::ActionKind::kCompute) {
        a.arg = 0;
      }
    }
  }
  nxe::VariantTrace positions;
  workload::DeriveTrace(twin, spec, &positions);

  std::optional<size_t> out_at;  // the draw the derive runs out at
  size_t draws_before = 0;       // draws of the threads before `t`
  for (size_t t = 0; t < tmpl.threads.size() && !out_at.has_value(); ++t) {
    const nxe::ThreadTrace& src = tmpl.threads[t];
    const std::vector<nxe::ThreadAction>& got = positions.threads[t].actions;
    size_t i = 0;  // template actions before derived action d
    size_t draws = draws_before;
    for (size_t d = 0; d < got.size(); ++d) {
      const bool inserted = got[d].kind == nxe::ActionKind::kSyscall &&
                            (got[d].arg & nxe::ThreadTrace::kOwnRecord) != 0 &&
                            (got[d].arg & ~nxe::ThreadTrace::kOwnRecord) >= src.syscalls.size();
      if (!inserted) {
        draws += DrawsJitter(src.actions[i++]) ? 1 : 0;
        continue;
      }
      if (i > 0 && i < src.actions.size() && DrawsJitter(src.actions[i]) && draws > 0) {
        out_at = draws;
        break;
      }
    }
    for (const nxe::ThreadAction& a : src.actions) {
      draws_before += DrawsJitter(a) ? 1 : 0;
    }
  }
  ASSERT_TRUE(out_at.has_value()) << "no insert mid-thread before a drawing segment";

  ExpectDeriveMatchesLiveDraws(DrawingTemplate(*out_at, tmpl), spec);  // the memo's tape
  ExpectDeriveMatchesLiveDraws(tmpl, spec);
}

// The memo's tape for the stream ends just before a draw that a preemption
// burst follows, mid-thread: the longer derive must resume at that burst.
TEST(NoiseTapeTest, DeriveRunsOutOfAShorterTapeOnABurstDraw) {
  for (const bool sprinkle : {false, true}) {
    workload::TraceTemplate like;
    like.jitter_salt = 29;
    like.sprinkle_memory_management = sprinkle;
    workload::VariantSpec spec;
    spec.jitter_seed = sprinkle ? 0xB0B5'0000'0000'0001ULL : 0xB0B5'0000'0000'0002ULL;
    const size_t burst = FirstBurstDraw(like, spec, 1);
    SCOPED_TRACE("burst at draw " + std::to_string(burst));
    ExpectDeriveMatchesLiveDraws(DrawingTemplate(burst, like), spec);
    ExpectDeriveMatchesLiveDraws(DrawingTemplate(burst + 200, like), spec);
    // A tape that holds one burst and ends on the next burst's draw: the
    // derive resumes at the second.
    workload::VariantSpec next = spec;
    next.jitter_seed += 2;
    const size_t second = FirstBurstDraw(like, next, FirstBurstDraw(like, next, 1) + 1);
    ExpectDeriveMatchesLiveDraws(DrawingTemplate(second, like), next);
    ExpectDeriveMatchesLiveDraws(DrawingTemplate(second + 1, like), next);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// An over-cap template reads the memo's capped tape to its end, then a tape
// of its own; from a cold memo it starts on its own tape.
TEST(NoiseTapeTest, OverCapTemplateReadsPastTheMemosTape) {
  Rng rng(0x0CA7);
  const workload::TraceTemplate over_cap =
      RandomTemplate(&rng, workload::kNoiseTapeDraws + 700);
  workload::VariantSpec spec = RandomSpec(&rng);
  spec.jitter_seed = 0x0CA7'0000'0000'0000ULL;  // no other test uses these
  ExpectDeriveMatchesLiveDraws(DrawingTemplate(workload::kNoiseTapeDraws, over_cap), spec);
  ExpectDeriveMatchesLiveDraws(over_cap, spec);
  ExpectDeriveMatchesLiveDraws(over_cap, spec);  // the memo still holds the capped tape
  spec.jitter_seed += 1;
  ExpectDeriveMatchesLiveDraws(over_cap, spec);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// The sanitizer allocator's statistics (declared in
// sanitizer/allocator_interface.h, which GCC does not ship).
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif
#ifndef __SANITIZE_ADDRESS__
// A KiB field of /proc/self/status ("VmHWM:" peak RSS, "VmRSS:" current), or
// 0 when absent.
size_t StatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stoul(line.substr(field.size()));
    }
  }
  return 0;
}
size_t PeakRssKb() { return StatusKb("VmHWM:"); }
#endif

// The bytes the heap holds: the sanitizer allocator's live bytes where one
// runs (ASan's quarantine keeps freed blocks resident, TSan adds shadow
// memory), else the resident set; 0 when unreadable.
size_t HeapBytes() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return __sanitizer_get_current_allocated_bytes();
#else
  return StatusKb("VmRSS:") << 10;
#endif
}

// Junk jitter seeds (as a hostile wire client could send) and over-cap
// templates must not grow the memo past its bound. Kept unbounded, the
// 10,000 streams below would hold ~160 MiB of tapes and the over-cap ones
// ~50 MiB. Under ASan, whose quarantine keeps freed blocks resident, peak
// RSS would measure the quarantine; what the memo retains shows in the live
// heap instead.
TEST(NoiseTapeTest, MemoStaysBoundedUnderJunkSeedsAndOverCapTemplates) {
#ifdef __SANITIZE_ADDRESS__
  const size_t live_before = __sanitizer_get_current_allocated_bytes();
#else
  std::ofstream("/proc/self/clear_refs") << "5";  // peak := current, where allowed
  const size_t before = PeakRssKb();
  if (before == 0) {
    GTEST_SKIP() << "no VmHWM in /proc/self/status";
  }
#endif
  Rng rng(0xB0B);
  nxe::VariantTrace trace;
  workload::VariantSpec spec;
  const workload::TraceTemplate tmpl = RandomTemplate(&rng, 1024);
  for (uint64_t i = 0; i < 10'000; ++i) {
    spec.jitter_seed = 0x5EED'0000'0000'0000ULL + i;
    workload::DeriveTrace(tmpl, spec, &trace);
  }
  const workload::TraceTemplate over_cap = RandomTemplate(&rng, 4 * workload::kNoiseTapeDraws);
  for (uint64_t i = 0; i < 200; ++i) {
    spec.jitter_seed = 0x0CA9'0000'0000'0000ULL + i;
    workload::DeriveTrace(over_cap, spec, &trace);
  }
  ExpectLiveDraws(over_cap, spec, trace);
#ifdef __SANITIZE_ADDRESS__
  EXPECT_LT(__sanitizer_get_current_allocated_bytes(), live_before + (32u << 20))
      << "live heap grew by " << (__sanitizer_get_current_allocated_bytes() - live_before)
      << " bytes";
#else
  EXPECT_LT(PeakRssKb(), before + (32u << 10)) << "peak RSS grew by " << (PeakRssKb() - before)
                                               << " KiB";
#endif
}

// --- Borrowed record tables ----------------------------------------------------
//
// Every trace derived from one template, the baseline included, reads the
// template's record tables; a derived thread owns only the records it adds.

api::VariantPlan AsanCheckPlan(const char* name, bool inject_divergence) {
  api::NvxBuilder builder;
  builder.Benchmark(*workload::FindBenchmark(name))
      .Variants(8)
      .DistributeChecks(san::SanitizerId::kASan);
  if (inject_divergence) {
    builder.InjectDivergence(6, "exfiltrated");
  }
  auto plan = builder.PlanVariants();
  EXPECT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
  return plan.ok() ? std::move(*plan) : api::VariantPlan{};
}

// The plan's variants, then the baseline, all derived from `tmpl`.
std::vector<nxe::VariantTrace> DeriveSession(const api::VariantPlan& plan,
                                             const workload::TraceTemplate& tmpl) {
  std::vector<size_t> slots(plan.n_variants());
  std::iota(slots.begin(), slots.end(), size_t{0});
  std::vector<nxe::VariantTrace> traces;
  EXPECT_TRUE(api::DerivePlanTraces(plan, slots, tmpl, &traces).ok());
  traces.emplace_back();
  workload::DeriveTrace(tmpl, workload::VariantSpec{}, &traces.back());
  return traces;
}

TEST(BorrowedRecordsTest, TemplateSyscallsResolveToOneRecordInEveryTrace) {
  for (const char* name : {"perlbench", "radiosity"}) {
    const api::VariantPlan plan = AsanCheckPlan(name, false);
    workload::TraceTemplate tmpl;
    api::BuildPlanTemplate(plan, 7, &tmpl);
    const std::vector<nxe::VariantTrace> traces = DeriveSession(plan, tmpl);
    ASSERT_EQ(traces.size(), 9u);
    size_t own_records = 0;
    for (size_t v = 0; v < traces.size(); ++v) {
      ASSERT_EQ(traces[v].threads.size(), tmpl.threads.size()) << name;
      for (size_t t = 0; t < tmpl.threads.size(); ++t) {
        const nxe::ThreadTrace& src = tmpl.threads[t];
        const nxe::ThreadTrace& thread = traces[v].threads[t];
        ASSERT_NE(src.borrowed, nullptr) << name;
        EXPECT_TRUE(src.syscalls.empty()) << name << ", thread " << t;
        std::vector<const sc::SyscallRecord*> want;
        for (const nxe::ThreadAction& a : src.actions) {
          if (a.kind == nxe::ActionKind::kSyscall) {
            want.push_back(&src.RecordOf(a));
          }
        }
        std::vector<const sc::SyscallRecord*> borrowed;
        size_t own = 0;
        for (const nxe::ThreadAction& a : thread.actions) {
          if (a.kind != nxe::ActionKind::kSyscall) {
            continue;
          }
          if ((a.arg & nxe::ThreadTrace::kOwnRecord) == 0) {
            borrowed.push_back(&thread.RecordOf(a));
          } else {
            EXPECT_TRUE(sc::IsMemoryManagement(thread.RecordOf(a).no));
            ++own;
          }
        }
        // The same records at the same addresses, in template order.
        EXPECT_EQ(borrowed, want) << name << ", trace " << v << ", thread " << t;
        // The thread's own table holds its memory-management records and
        // nothing else.
        EXPECT_EQ(own, thread.syscalls.size()) << name << ", trace " << v << ", thread " << t;
        for (const sc::SyscallRecord& rec : thread.syscalls) {
          EXPECT_TRUE(sc::IsMemoryManagement(rec.no)) << name << ", trace " << v;
        }
        own_records += own;
      }
    }
    EXPECT_GT(own_records, 0u) << name << ": no variant carries a sanitizer runtime";
  }
}

// The overlay replaces one record of variant 6 with a modified copy. A write
// through the shared table would change the template and every other trace.
TEST(BorrowedRecordsTest, DivergenceOverlayChangesOnlyTheInjectedVariant) {
  const api::VariantPlan plan = AsanCheckPlan("perlbench", true);
  workload::TraceTemplate tmpl;
  api::BuildPlanTemplate(plan, 7, &tmpl);
  const nxe::ThreadTrace& src = tmpl.threads[0];
  const nxe::RecordTable original = *src.borrowed;
  const std::vector<nxe::VariantTrace> traces = DeriveSession(plan, tmpl);

  auto same = [](const sc::SyscallRecord& a, const sc::SyscallRecord& b) {
    return a.SameRequest(b) && a.result == b.result;
  };
  ASSERT_EQ(src.borrowed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(same((*src.borrowed)[i], original[i])) << "template record " << i;
  }
  std::vector<uint32_t> template_syscalls;  // record indices, in action order
  for (const nxe::ThreadAction& a : src.actions) {
    if (a.kind == nxe::ActionKind::kSyscall) {
      template_syscalls.push_back(a.arg);
    }
  }
  for (size_t v = 0; v < traces.size(); ++v) {
    const nxe::ThreadTrace& thread = traces[v].threads[0];
    size_t k = 0;
    size_t changed = 0;
    for (const nxe::ThreadAction& a : thread.actions) {
      if (a.kind != nxe::ActionKind::kSyscall ||
          sc::IsMemoryManagement(thread.RecordOf(a).no)) {
        continue;
      }
      ASSERT_LT(k, template_syscalls.size()) << "trace " << v;
      const sc::SyscallRecord& want = original[template_syscalls[k++]];
      if (same(thread.RecordOf(a), want)) {
        continue;
      }
      ++changed;
      EXPECT_EQ(thread.RecordOf(a).payload_digest, sc::DigestString("exfiltrated"));
      EXPECT_NE(a.arg & nxe::ThreadTrace::kOwnRecord, 0u)
          << "the overlay must be the variant's own record";
    }
    EXPECT_EQ(k, template_syscalls.size()) << "trace " << v;
    EXPECT_EQ(changed, v == 6 ? 1u : 0u) << "trace " << v;
  }
}

// BuildPlanTraces destroys its template on return; the traces keep the
// tables they borrow alive (under ASan a dangling table is a hard failure).
TEST(BorrowedRecordsTest, PlanTracesOutliveTheirTemplate) {
  const api::VariantPlan plan = AsanCheckPlan("radiosity", true);
  std::vector<size_t> slots(plan.n_variants());
  std::iota(slots.begin(), slots.end(), size_t{0});
  const auto orphaned = api::BuildPlanTraces(plan, slots, 301);
  ASSERT_TRUE(orphaned.ok()) << orphaned.status().ToString();

  workload::TraceTemplate tmpl;
  api::BuildPlanTemplate(plan, 301, &tmpl);
  std::vector<nxe::VariantTrace> live;
  ASSERT_TRUE(api::DerivePlanTraces(plan, slots, tmpl, &live).ok());
  ASSERT_EQ(orphaned->size(), live.size());
  for (size_t v = 0; v < live.size(); ++v) {
    TraceDigest got;
    TraceDigest want;
    got.Trace((*orphaned)[v]);
    want.Trace(live[v]);
    EXPECT_EQ(got.value(), want.value()) << "trace " << v;
  }
  auto report = nxe::Engine(nxe::EngineConfig{}).Run(*orphaned);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->divergence.has_value());
}

// A rebuild refills a table no trace borrows, keeping its capacity, and
// leaves a borrowed one to its borrowers untouched.
TEST(BorrowedRecordsTest, RebuildRefillsOnlyAnUnborrowedTable) {
  const workload::BenchmarkSpec& bench = *workload::FindBenchmark("perlbench");
  workload::TraceTemplate tmpl;
  workload::BuildTemplate(bench, 1, &tmpl);
  const nxe::RecordTable* table = tmpl.threads[0].borrowed.get();
  const size_t capacity = table->capacity();

  workload::BuildTemplate(bench, 2, &tmpl);
  EXPECT_EQ(tmpl.threads[0].borrowed.get(), table);
  EXPECT_EQ(tmpl.threads[0].borrowed->capacity(), capacity);

  nxe::VariantTrace held;
  workload::DeriveTrace(tmpl, workload::VariantSpec{}, &held);
  TraceDigest want;
  want.Trace(held);
  workload::BuildTemplate(bench, 3, &tmpl);
  EXPECT_NE(tmpl.threads[0].borrowed.get(), table);
  EXPECT_EQ(held.threads[0].borrowed.get(), table);
  TraceDigest got;
  got.Trace(held);
  EXPECT_EQ(got.value(), want.value()) << "a rebuild wrote a table a trace still borrows";
}

// A derive into a trace that already holds the same variant reuses every
// buffer, the memory-management inserts' scratch included: an ASan check
// variant's 12 inserts per thread sit in an inline buffer.
TEST(BorrowedRecordsTest, RederivingAnAsanCheckVariantAllocatesNothing) {
#ifndef BUNSHIN_COUNTS_ALLOCS
  GTEST_SKIP() << "allocations are counted in builds without a sanitizer";
#else
  for (const char* name : {"perlbench", "radiosity"}) {
    const api::VariantPlan plan = AsanCheckPlan(name, false);
    workload::TraceTemplate tmpl;
    api::BuildPlanTemplate(plan, 7, &tmpl);
    const workload::VariantSpec& spec = plan.specs[1];
    ASSERT_EQ(spec.sanitizers, std::vector<san::SanitizerId>{san::SanitizerId::kASan});
    nxe::VariantTrace trace;
    workload::DeriveTrace(tmpl, spec, &trace);  // sizes the trace, fills the tape memo
    size_t mm_records = 0;
    for (const nxe::ThreadTrace& thread : trace.threads) {
      mm_records += thread.syscalls.size();
    }
    ASSERT_EQ(mm_records, 12 * trace.threads.size()) << name;

    const uint64_t before = g_allocs.load();
    g_count_allocs = true;
    workload::DeriveTrace(tmpl, spec, &trace);
    g_count_allocs = false;
    EXPECT_EQ(g_allocs.load() - before, 0u) << name;
  }
#endif
}

// 64 sessions of perlbench at n = 8 (each its variants and baseline) grow the
// heap by their actions and memory-management records, plus each trace's
// fixed bookkeeping and allocator slack: about 13.5 MB. A copy of the
// template's records per trace (560 records, 40 KB) would add 23 MB more.
// Measured as HeapBytes: resident set growth in plain builds, the live heap
// under ASan and TSan.
TEST(BorrowedRecordsTest, DerivingPerlbenchGrowsTheHeapByActionsAndOwnRecords) {
  const api::VariantPlan plan = AsanCheckPlan("perlbench", false);
  workload::TraceTemplate tmpl;
  api::BuildPlanTemplate(plan, 7, &tmpl);
  DeriveSession(plan, tmpl);  // fills the noise tapes this plan reads

  constexpr size_t kSessions = 64;
  std::vector<std::vector<nxe::VariantTrace>> sessions(kSessions);
  const size_t before = HeapBytes();
  if (before == 0) {
    GTEST_SKIP() << "no VmRSS in /proc/self/status";
  }
  for (std::vector<nxe::VariantTrace>& traces : sessions) {
    traces = DeriveSession(plan, tmpl);
  }
  const size_t after = HeapBytes();

  size_t actions = 0;
  size_t mm_records = 0;
  size_t bookkeeping = 0;
  for (const std::vector<nxe::VariantTrace>& traces : sessions) {
    bookkeeping += traces.capacity() * sizeof(nxe::VariantTrace);
    for (const nxe::VariantTrace& trace : traces) {
      bookkeeping += trace.threads.capacity() * sizeof(nxe::ThreadTrace) +
                     (trace.pre_main.capacity() + trace.post_exit.capacity()) *
                         sizeof(sc::SyscallRecord);
      for (const nxe::ThreadTrace& thread : trace.threads) {
        actions += thread.actions.capacity();
        for (const sc::SyscallRecord& rec : thread.syscalls) {
          mm_records += sc::IsMemoryManagement(rec.no) ? 1 : 0;
        }
      }
    }
  }
  ASSERT_GT(mm_records, 0u);
  // Allocators round blocks up to size classes (TSan's 19.9 KB action
  // arrays take 20 KB), so a tenth more plus 1 MiB is allowed.
  const size_t owned =
      actions * sizeof(nxe::ThreadAction) + mm_records * sizeof(sc::SyscallRecord) + bookkeeping;
  const size_t bound = owned + owned / 10 + (1u << 20);
  const size_t grown = after > before ? after - before : 0;
  EXPECT_LE(grown, bound) << "the heap grew by " << grown << " bytes for " << actions
                          << " actions and " << mm_records << " memory-management records";
}

// --- Sync classes ---------------------------------------------------------------
//
// The engine and the liveness proof decide how to synchronize a syscall by
// the class byte its action carries (nxe::ThreadAction::sync), never by its
// record. These tests hold every generator to setting that byte from the
// record's number, on every trace a plan can produce.

// Counts, per class, the syscall actions that carry their record's class,
// and the ones that do not.
struct ClassTally {
  size_t by_class[3] = {0, 0, 0};
  size_t wrong = 0;

  void Add(const nxe::ThreadTrace& thread) {
    for (const nxe::ThreadAction& action : thread.actions) {
      if (action.kind != nxe::ActionKind::kSyscall) {
        continue;
      }
      const sc::SyncClass expected = sc::SyncClassOf(thread.RecordOf(action).no);
      ++by_class[static_cast<size_t>(expected)];
      wrong += action.sync != expected ? 1 : 0;
    }
  }
  void Add(const nxe::VariantTrace& trace) {
    for (const nxe::ThreadTrace& thread : trace.threads) {
      Add(thread);
    }
  }
  // Every class was met, so the checks above were not vacuous.
  void ExpectEveryClassMet() const {
    EXPECT_GT(by_class[static_cast<size_t>(sc::SyncClass::kLockstep)], 0u);
    EXPECT_GT(by_class[static_cast<size_t>(sc::SyncClass::kRing)], 0u);
    EXPECT_GT(by_class[static_cast<size_t>(sc::SyncClass::kIgnored)], 0u);
  }
};

TEST(SyncClassTest, ClassifiersAgreeWithTheClass) {
  for (size_t i = 0; i <= static_cast<size_t>(sc::Sysno::kCount); ++i) {
    const auto no = static_cast<sc::Sysno>(i);
    const sc::SyncClass cls = sc::SyncClassOf(no);
    EXPECT_EQ(cls == sc::SyncClass::kIgnored, !sc::IsSyncRelevant(no)) << sc::SysnoName(no);
    EXPECT_EQ(cls == sc::SyncClass::kLockstep, sc::IsSyncRelevant(no) && sc::IsIoWriteRelated(no))
        << sc::SysnoName(no);
  }
}

// Per (program, strategy, n, mode) of the catalog: the plan as built, with a
// detection overlay on its last variant and with a divergence overlay on its
// middle one, run whole and split into Shards(3)'s member groups.
TEST(SyncClassTest, CatalogMatrixTracesCarryTheirRecordsClasses) {
  const std::vector<workload::BenchmarkSpec> programs = RunnablePrograms();
  ASSERT_EQ(programs.size(), 38u);
  ClassTally tally;
  size_t plans = 0;
  for (const workload::BenchmarkSpec& bench : programs) {
    for (int strategy = 0; strategy < 4; ++strategy) {
      for (size_t n : {size_t{2}, size_t{4}, size_t{8}}) {
        for (nxe::LockstepMode mode : {nxe::LockstepMode::kStrict, nxe::LockstepMode::kSelective}) {
          api::NvxBuilder builder;
          builder.Benchmark(bench).Variants(n).Lockstep(mode);
          if (strategy == 1) {
            builder.DistributeChecks(san::SanitizerId::kASan);
          } else if (strategy == 2) {
            builder.DistributeSanitizers(
                {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
          } else if (strategy == 3) {
            builder.DistributeUbsanSubSanitizers();
          }
          StatusOr<api::VariantPlan> plan = builder.PlanVariants();
          ASSERT_TRUE(plan.ok()) << bench.name << ": " << plan.status().ToString();
          const size_t width = plan->n_variants();
          api::VariantPlan detect = *plan;
          detect.detect_injections.push_back({width - 1, "__asan_report_load8"});
          api::VariantPlan diverge = *plan;
          diverge.diverge_injections.push_back({width / 2, "exfiltrated"});
          std::vector<std::vector<size_t>> member_sets = api::ShardMemberGroups(width, 3);
          member_sets.emplace_back(width);
          std::iota(member_sets.back().begin(), member_sets.back().end(), 0);
          for (const api::VariantPlan* p : {&*plan, &detect, &diverge}) {
            for (const std::vector<size_t>& members : member_sets) {
              std::vector<nxe::VariantTrace> traces;
              ASSERT_TRUE(api::BuildPlanTraces(*p, members, p->seed, &traces).ok()) << bench.name;
              const size_t wrong = tally.wrong;
              for (const nxe::VariantTrace& trace : traces) {
                tally.Add(trace);
              }
              ASSERT_EQ(tally.wrong, wrong)
                  << bench.name << ", strategy " << strategy << ", n " << n << ", "
                  << nxe::LockstepModeName(mode) << ", " << members.size() << " member(s)";
            }
            ++plans;
          }
        }
      }
    }
  }
  EXPECT_EQ(plans, 38u * 4 * 3 * 2 * 3);
  tally.ExpectEveryClassMet();
}

TEST(SyncClassTest, BaselineTracesCarryTheirRecordsClasses) {
  ClassTally tally;
  for (const workload::BenchmarkSpec& bench : RunnablePrograms()) {
    for (uint64_t seed : {1ULL, 7ULL}) {
      workload::TraceTemplate tmpl;
      workload::BuildTemplate(bench, seed, &tmpl);
      for (const nxe::ThreadTrace& thread : tmpl.threads) {
        tally.Add(thread);
      }
      nxe::VariantTrace baseline;
      workload::DeriveTrace(tmpl, workload::VariantSpec{}, &baseline);
      tally.Add(baseline);
    }
  }
  EXPECT_EQ(tally.wrong, 0u);
  // A baseline carries no sanitizer, so no syscall of it is ignored.
  EXPECT_EQ(tally.by_class[static_cast<size_t>(sc::SyncClass::kIgnored)], 0u);
  EXPECT_GT(tally.by_class[static_cast<size_t>(sc::SyncClass::kRing)], 0u);
  EXPECT_GT(tally.by_class[static_cast<size_t>(sc::SyncClass::kLockstep)], 0u);
}

TEST(SyncClassTest, ServerTemplatesCarryTheirRecordsClasses) {
  workload::VariantSpec instrumented;
  instrumented.name = "asan";
  instrumented.compute_scale = 1.8;
  instrumented.sanitizers = {san::SanitizerId::kASan};
  ClassTally tally;
  for (const char* name : {"lighttpd", "nginx"}) {
    for (size_t file_kb : {size_t{1}, size_t{1024}}) {
      workload::ServerSpec server;
      server.name = name;
      server.threads = std::string(name) == "nginx" ? 4 : 1;
      server.file_kb = file_kb;
      workload::TraceTemplate tmpl;
      workload::BuildServerTemplate(server, 7, &tmpl);
      for (const nxe::ThreadTrace& thread : tmpl.threads) {
        tally.Add(thread);
      }
      for (const workload::VariantSpec& spec : {workload::VariantSpec{}, instrumented}) {
        nxe::VariantTrace trace;
        workload::DeriveTrace(tmpl, spec, &trace);
        tally.Add(trace);
      }
    }
  }
  EXPECT_EQ(tally.wrong, 0u);
  EXPECT_GT(tally.by_class[static_cast<size_t>(sc::SyncClass::kRing)], 0u);      // accept, read
  EXPECT_GT(tally.by_class[static_cast<size_t>(sc::SyncClass::kLockstep)], 0u);  // write
}

}  // namespace
}  // namespace bunshin
