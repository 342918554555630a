// Tests for the N-version execution engine: synchronization semantics,
// divergence detection, sanitizer-syscall filtering, lockstep modes, weak
// determinism, and the cost model.
#include <gtest/gtest.h>

#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/nxe/engine.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

using nxe::ActionKind;
using nxe::Engine;
using nxe::EngineConfig;
using nxe::LockstepMode;
using nxe::ThreadAction;
using nxe::VariantTrace;

sc::SyscallRecord MakeWrite(const std::string& payload) {
  sc::SyscallRecord rec;
  rec.no = sc::Sysno::kWrite;
  rec.args = {1, static_cast<int64_t>(payload.size()), 0, 0, 0, 0};
  rec.payload_digest = sc::DigestString(payload);
  return rec;
}

sc::SyscallRecord MakeRead() {
  sc::SyscallRecord rec;
  rec.no = sc::Sysno::kRead;
  rec.args = {0, 128, 0, 0, 0, 0};
  return rec;
}

// One hand-written action: a syscall or detection carries its record or
// detector, which Thread() appends to the thread's tables.
struct Op {
  ThreadAction action;
  sc::SyscallRecord record = {};
  std::string detector = {};
};

Op Compute(double cycles) { return {ThreadAction::Compute(cycles)}; }
Op Syscall(const sc::SyscallRecord& record) {
  return {{0.0, 0, ActionKind::kSyscall}, record};
}
Op Detect(std::string detector) {
  return {{0.0, 0, ActionKind::kDetect}, {}, std::move(detector)};
}
Op Barrier(uint32_t id) { return {ThreadAction::Barrier(id)}; }
Op Exit() { return {ThreadAction::Exit()}; }

nxe::ThreadTrace Thread(const std::vector<Op>& ops) {
  nxe::ThreadTrace thread;
  for (const Op& op : ops) {
    switch (op.action.kind) {
      case ActionKind::kSyscall:
        thread.AppendSyscall(op.record);
        break;
      case ActionKind::kDetect:
        thread.AppendDetect(op.detector);
        break;
      default:
        thread.Append(op.action);
        break;
    }
  }
  return thread;
}

VariantTrace SimpleVariant(const std::string& name, double scale, const std::vector<Op>& ops) {
  VariantTrace trace;
  trace.name = name;
  trace.compute_scale = scale;
  trace.threads.push_back(Thread(ops));
  trace.threads[0].Append(ThreadAction::Exit());
  return trace;
}

TEST(EngineTest, IdenticalVariantsComplete) {
  const std::vector<Op> actions = {
      Compute(100), Syscall(MakeRead()),
      Compute(50), Syscall(MakeWrite("hello"))};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, actions),
                                        SimpleVariant("b", 1.0, actions),
                                        SimpleVariant("c", 1.0, actions)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_FALSE(report->divergence.has_value());
  EXPECT_EQ(report->synced_syscalls, 2u);
}

TEST(EngineTest, ArgumentDivergenceDetected) {
  const std::vector<Op> good = {Compute(10),
                                          Syscall(MakeWrite("normal"))};
  const std::vector<Op> evil = {Compute(10),
                                          Syscall(MakeWrite("leaked-secret"))};
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 1.0, good),
                                        SimpleVariant("follower", 1.0, evil)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->divergence.has_value());
  EXPECT_EQ(report->divergence->variant, 1u);
  EXPECT_TRUE(report->aborted_all);
}

TEST(EngineTest, SequenceDivergenceDetected) {
  const std::vector<Op> two = {Syscall(MakeRead()),
                                         Syscall(MakeWrite("x"))};
  const std::vector<Op> one = {Syscall(MakeRead())};
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 1.0, two),
                                        SimpleVariant("follower", 1.0, one)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->divergence.has_value());
}

TEST(EngineTest, DetectionAbortsAllVariants) {
  const std::vector<Op> protected_v = {Compute(10),
                                                 Detect("__asan_report_store")};
  const std::vector<Op> unprotected_v = {Compute(10),
                                                   Syscall(MakeWrite("pwned"))};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, protected_v),
                                        SimpleVariant("b", 1.0, unprotected_v)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->detection.has_value());
  EXPECT_EQ(report->detection->detector, "__asan_report_store");
  EXPECT_TRUE(report->aborted_all);
  EXPECT_FALSE(report->completed);
}

TEST(EngineTest, SanitizerMemoryManagementSyscallsIgnored) {
  // Variant b issues extra mmap/madvise (sanitizer metadata management);
  // no false alarm may result (§3.3).
  sc::SyscallRecord mmap_rec;
  mmap_rec.no = sc::Sysno::kMmap;
  mmap_rec.args = {0, 4096, 0, 0, 0, 0};
  const std::vector<Op> plain = {Compute(10),
                                           Syscall(MakeWrite("ok"))};
  const std::vector<Op> with_mm = {
      Syscall(mmap_rec), Compute(10),
      Syscall(mmap_rec), Syscall(MakeWrite("ok"))};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, plain),
                                        SimpleVariant("b", 1.2, with_mm)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->ignored_syscalls, 2u);
}

TEST(EngineTest, PreMainAndPostExitSyscallsIgnored) {
  const std::vector<Op> actions = {Compute(10),
                                             Syscall(MakeWrite("ok"))};
  std::vector<VariantTrace> variants = {SimpleVariant("asan", 1.5, actions),
                                        SimpleVariant("plain", 1.0, actions)};
  // The ASan variant reads /proc/self before main and writes a report at exit.
  variants[0].pre_main = {sc::ParseIntroducedSyscall("open:/proc/self/maps"),
                          sc::ParseIntroducedSyscall("read:/proc/self/maps")};
  variants[0].post_exit = {sc::ParseIntroducedSyscall("write:report")};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->ignored_syscalls, 3u);
}

TEST(EngineTest, SelectiveFasterThanStrict) {
  const auto& bench = workload::Spec2006()[0];  // perlbench: syscall-heavy
  auto variants = workload::BuildIdenticalVariants(bench, 3, 42);

  EngineConfig strict;
  strict.mode = LockstepMode::kStrict;
  strict.cache_sensitivity = bench.cache_sensitivity;
  EngineConfig selective = strict;
  selective.mode = LockstepMode::kSelective;

  Engine strict_engine(strict);
  Engine selective_engine(selective);
  auto strict_report = strict_engine.Run(variants);
  auto selective_report = selective_engine.Run(variants);
  ASSERT_TRUE(strict_report.ok());
  ASSERT_TRUE(selective_report.ok());
  EXPECT_TRUE(strict_report->completed);
  EXPECT_TRUE(selective_report->completed);
  EXPECT_LT(selective_report->total_time, strict_report->total_time);
}

TEST(EngineTest, OverheadGrowsWithVariantCount) {
  const auto& bench = workload::Spec2006()[1];  // bzip2
  Engine engine(EngineConfig{});
  const double baseline = *engine.RunBaseline(workload::BuildIdenticalVariants(bench, 1, 7)[0]);
  double prev_overhead = -1.0;
  for (size_t n : {2, 4, 8}) {
    EngineConfig config;
    config.cost.cores = 12;
    config.cache_sensitivity = bench.cache_sensitivity;
    Engine scaled(config);
    auto report = scaled.Run(workload::BuildIdenticalVariants(bench, n, 7));
    ASSERT_TRUE(report.ok());
    auto overhead_or = report->OverheadVs(baseline);
    ASSERT_TRUE(overhead_or.ok());
    const double overhead = *overhead_or;
    EXPECT_GT(overhead, prev_overhead) << "n=" << n;
    prev_overhead = overhead;
  }
}

TEST(EngineTest, SelectiveModeReportsSyscallGap) {
  const auto& bench = workload::Spec2006()[0];
  auto variants = workload::BuildIdenticalVariants(bench, 3, 11);
  EngineConfig config;
  config.mode = LockstepMode::kSelective;
  Engine engine(config);
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_GT(report->max_syscall_gap, 0u);
  EXPECT_GE(report->avg_syscall_gap, 0.0);
  // Ring capacity bounds the gap.
  EXPECT_LE(report->max_syscall_gap, config.ring_capacity);
}

TEST(EngineTest, MultithreadedIdenticalVariantsComplete) {
  const auto& bench = workload::Splash2x()[0];  // barnes, 4 threads + locks
  auto variants = workload::BuildIdenticalVariants(bench, 3, 21);
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_GT(report->lock_acquisitions, 0u);
}

TEST(EngineTest, MultithreadedOverheadIncludesLockOrdering) {
  const auto& mt = workload::Splash2x()[9];  // radiosity: lock heavy
  const auto& st = workload::Spec2006()[1];
  Engine engine(EngineConfig{});
  auto mt_variants = workload::BuildIdenticalVariants(mt, 3, 5);
  auto st_variants = workload::BuildIdenticalVariants(st, 3, 5);
  const double mt_base = *engine.RunBaseline(mt_variants[0]);
  const double st_base = *engine.RunBaseline(st_variants[0]);
  auto mt_report = engine.Run(mt_variants);
  auto st_report = engine.Run(st_variants);
  ASSERT_TRUE(mt_report.ok());
  ASSERT_TRUE(st_report.ok());
  ASSERT_TRUE(mt_report->completed);
  EXPECT_GT(*mt_report->OverheadVs(mt_base), *st_report->OverheadVs(st_base));
}

TEST(EngineTest, VariantFinishTimesTrackComputeScale) {
  const std::vector<Op> actions = {Compute(1000),
                                             Syscall(MakeWrite("done"))};
  std::vector<VariantTrace> variants = {SimpleVariant("slow", 2.0, actions),
                                        SimpleVariant("fast", 1.0, actions)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  // Strict lockstep: everyone finishes with the slowest (leader waits too).
  EXPECT_NEAR(report->variant_finish_time[0], report->variant_finish_time[1],
              report->total_time * 0.05);
}

TEST(EngineTest, RejectsEmptyAndMismatchedInput) {
  Engine engine(EngineConfig{});
  EXPECT_FALSE(engine.Run({}).ok());

  VariantTrace one_thread = SimpleVariant("a", 1.0, {});
  VariantTrace two_threads = SimpleVariant("b", 1.0, {});
  two_threads.threads.resize(2);
  EXPECT_FALSE(engine.Run({one_thread, two_threads}).ok());
}

TEST(EngineTest, SingleCoreSerializesCompute) {
  const auto& bench = workload::Spec2006()[1];
  auto variants = workload::BuildIdenticalVariants(bench, 2, 3);
  EngineConfig config;
  config.cost.cores = 1;
  Engine engine(config);
  const double baseline = *engine.RunBaseline(variants[0]);
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  // Roughly doubles: two variants time-share one core (§5.7: 103.1%).
  EXPECT_GT(*report->OverheadVs(baseline), 0.8);
}

TEST(EngineTest, LockstepConsumeTimesUseFollowerFetchClock) {
  // Regression: in the strict/IO lockstep path the follower's consume time
  // was recorded as the leader's done_time instead of the follower's actual
  // post-fetch clock (done_time + result_fetch + wakeup). In a selective run
  // that mixes IO-write lockstep syscalls, that skewed both the §5.3 gap
  // metric and the ring free time the next publish stalls on.
  EngineConfig config;
  config.mode = LockstepMode::kSelective;
  config.ring_capacity = 1;
  config.cost.wait_wakeup = 10.0;  // make the follower's wakeup clearly visible
  const nxe::CostModel& cm = config.cost;

  // Leader (scale 2) arrives last at the write, so the follower sleeps there
  // and fetches the result only at done_time + result_fetch + wakeup. The
  // leader's next (ring) syscall reuses the only slot and must stall until
  // that real fetch time.
  const std::vector<Op> actions = {
      Compute(100), Syscall(MakeWrite("w")),
      Compute(0.1), Syscall(MakeRead())};
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 2.0, actions),
                                        SimpleVariant("follower", 1.0, actions)};
  Engine engine(config);
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->completed);

  const double factor = cm.LlcMultiplier(2, config.cache_sensitivity);
  const double leader_arrival = 2.0 * 100 * factor + cm.trap_hook;
  const double done_time = leader_arrival + cm.sync_slot + cm.kernel_syscall;
  const double follower_fetch = done_time + cm.result_fetch + cm.WakeupCost();
  // The leader's ring publish stalls until the follower's real fetch time —
  // with the bug it restarted at done_time and finished well before this.
  EXPECT_GT(report->variant_finish_time[0], follower_fetch);
  const double expected_leader_finish =
      follower_fetch + cm.sync_slot + cm.kernel_syscall + cm.sync_slot + cm.WakeupCost();
  EXPECT_NEAR(report->variant_finish_time[0], expected_leader_finish, 1e-9);
  // At each publish instant the follower has not yet fetched that slot:
  // gap 1 at both syscalls. The bug counted the lockstep slot as already
  // consumed at its own publish time (gap 0 there, avg 0.5).
  EXPECT_NEAR(report->avg_syscall_gap, 1.0, 1e-9);
}

TEST(EngineTest, MalformedBarrierTraceConsistentAcrossRunAndBaseline) {
  // Thread 1 exits without ever reaching the barrier thread 0 waits at. Both
  // entry points must call this out as a malformed trace rather than
  // releasing a partial barrier (RunBaseline) or deadlocking (Run).
  VariantTrace trace;
  trace.name = "partial-barrier";
  trace.threads.resize(2);
  trace.threads[0] = Thread({Compute(10), Barrier(0),
                              Exit()});
  trace.threads[1] = Thread({Compute(5), Exit()});

  Engine engine(EngineConfig{});
  auto baseline = engine.RunBaseline(trace);
  ASSERT_FALSE(baseline.ok());
  EXPECT_EQ(baseline.status().code(), StatusCode::kInvalidArgument);

  auto report = engine.Run({trace, trace});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ThreadMayExitAfterItsLastBarrier) {
  // Exiting is fine as long as no barrier is skipped: thread 1 finishes right
  // after the shared barrier while thread 0 keeps running and syncing.
  VariantTrace trace;
  trace.name = "early-exit";
  trace.threads.resize(2);
  trace.threads[0] = Thread({Barrier(0), Compute(50),
                              Syscall(MakeWrite("tail")), Exit()});
  trace.threads[1] = Thread({Barrier(0), Exit()});

  Engine engine(EngineConfig{});
  auto baseline = engine.RunBaseline(trace);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(*baseline, 0.0);
  auto report = engine.Run({trace, trace});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
}

TEST(EngineTest, BaselineDetectAbortsWholeProcess) {
  // A firing check kills the standalone process: time-to-abort is the
  // detecting thread's clock, whichever thread index carries the check; the
  // other thread's remaining work (and its pending barrier) never happens
  // and must not be billed or flagged as malformed.
  for (const size_t detect_thread : {0u, 1u}) {
    VariantTrace trace;
    trace.name = "standalone-detect";
    trace.threads.resize(2);
    trace.threads[detect_thread] = Thread({Compute(10),
                                            Detect("__asan_report_store")});
    trace.threads[1 - detect_thread] = Thread({
        Compute(1000), Barrier(0), Exit()});
    Engine engine(EngineConfig{});
    auto baseline = engine.RunBaseline(trace);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_DOUBLE_EQ(*baseline, 10.0) << "detect in thread " << detect_thread;
  }
}

TEST(EngineTest, TinyRingThrottlesLeaderToFollowerPace) {
  // ring_capacity back-pressure: with a slow follower and a tiny ring the
  // leader stalls on each slot's free time and is held to the follower's
  // pace; with a ring larger than the stream it runs ahead unthrottled.
  std::vector<Op> actions;
  for (int i = 0; i < 20; ++i) {
    actions.push_back(Compute(10));
    actions.push_back(Syscall(MakeRead()));
  }
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 1.0, actions),
                                        SimpleVariant("slow-follower", 4.0, actions)};

  EngineConfig small;
  small.mode = LockstepMode::kSelective;
  small.ring_capacity = 2;
  EngineConfig big = small;
  big.ring_capacity = 64;

  auto small_report = Engine(small).Run(variants);
  auto big_report = Engine(big).Run(variants);
  ASSERT_TRUE(small_report.ok()) << small_report.status().ToString();
  ASSERT_TRUE(big_report.ok()) << big_report.status().ToString();
  EXPECT_TRUE(small_report->completed);
  EXPECT_TRUE(big_report->completed);

  // The ring bounds the attack window exactly; the big ring lets it grow.
  EXPECT_EQ(small_report->max_syscall_gap, 2u);
  EXPECT_GT(big_report->max_syscall_gap, 2u);
  EXPECT_LE(big_report->max_syscall_gap, big.ring_capacity);

  // free_time bookkeeping: the throttled leader finishes near the follower,
  // the unthrottled one far ahead of it.
  const double small_leader = small_report->variant_finish_time[0];
  const double small_follower = small_report->variant_finish_time[1];
  const double big_leader = big_report->variant_finish_time[0];
  const double big_follower = big_report->variant_finish_time[1];
  EXPECT_GT(small_leader, 1.5 * big_leader);
  EXPECT_GT(small_leader, 0.8 * small_follower);
  EXPECT_LT(big_leader, 0.5 * big_follower);
  // Back-pressure delays the leader, never the total (the follower is the
  // critical path in both runs).
  EXPECT_NEAR(small_follower, big_follower, 0.05 * big_follower);
}

TEST(EngineTest, SelectiveModeRejectsZeroRingCapacity) {
  const std::vector<Op> actions = {Syscall(MakeRead())};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, actions),
                                        SimpleVariant("b", 1.0, actions)};
  EngineConfig config;
  config.mode = LockstepMode::kSelective;
  config.ring_capacity = 0;
  auto report = Engine(config).Run(variants);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  config.mode = LockstepMode::kStrict;  // strict mode never touches the ring
  EXPECT_TRUE(Engine(config).Run(variants).ok());
}

// --- Sync classes -----------------------------------------------------------
//
// The schedulers take a syscall by its action's class byte and look at two
// syscalls' records only when the actions name distinct records.

// Every field of two reports, doubles compared exactly.
void ExpectSameReport(const nxe::SyncReport& a, const nxe::SyncReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.aborted_all, b.aborted_all);
  ASSERT_EQ(a.divergence.has_value(), b.divergence.has_value());
  if (a.divergence.has_value()) {
    EXPECT_EQ(a.divergence->variant, b.divergence->variant);
    EXPECT_EQ(a.divergence->thread, b.divergence->thread);
    EXPECT_EQ(a.divergence->sync_index, b.divergence->sync_index);
    EXPECT_EQ(a.divergence->expected, b.divergence->expected);
    EXPECT_EQ(a.divergence->actual, b.divergence->actual);
  }
  ASSERT_EQ(a.detection.has_value(), b.detection.has_value());
  EXPECT_EQ(a.variant_finish_time, b.variant_finish_time);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.synced_syscalls, b.synced_syscalls);
  EXPECT_EQ(a.ignored_syscalls, b.ignored_syscalls);
  EXPECT_EQ(a.lockstep_barriers, b.lockstep_barriers);
  EXPECT_EQ(a.lock_acquisitions, b.lock_acquisitions);
  EXPECT_EQ(a.avg_syscall_gap, b.avg_syscall_gap);
  EXPECT_EQ(a.max_syscall_gap, b.max_syscall_gap);
}

// The leader shape that sends a run to the eager path first: no lock
// acquisition, barrier or detection.
bool EagerShaped(const VariantTrace& leader) {
  for (const nxe::ThreadTrace& thread : leader.threads) {
    for (const ThreadAction& a : thread.actions) {
      if (a.kind == ActionKind::kLockAcquire || a.kind == ActionKind::kBarrier ||
          a.kind == ActionKind::kDetect) {
        return false;
      }
    }
  }
  return true;
}

TEST(SyncClassTest, AnActionMadeWithoutAClassIsLockstep) {
  EXPECT_EQ(ThreadAction{}.sync, sc::SyncClass::kLockstep);
  EXPECT_EQ((ThreadAction{0.0, 0, ActionKind::kSyscall}.sync), sc::SyncClass::kLockstep);
  EXPECT_EQ(ThreadAction::Syscall(0, sc::Sysno::kMmap).sync, sc::SyncClass::kIgnored);
  EXPECT_EQ(ThreadAction::Syscall(0, sc::Sysno::kRead).sync, sc::SyncClass::kRing);
  EXPECT_EQ(ThreadAction::Syscall(0, sc::Sysno::kWrite).sync, sc::SyncClass::kLockstep);
}

// A follower's memory-management syscall appended without its class is
// compared like any lockstep syscall, so the run reports a divergence where
// the classified syscall would have been skipped: the byte, not the record,
// decides, and its zero value fails closed. The reference scheduler
// classifies from the record, so it skips the syscall either way.
TEST(SyncClassTest, UnclassifiedMemoryManagementSyscallFailsClosed) {
  sc::SyscallRecord mmap_rec;
  mmap_rec.no = sc::Sysno::kMmap;
  mmap_rec.args = {0, 4096, 0, 0, 0, 0};
  for (bool barrier : {false, true}) {  // eager path (which bails), event scheduler
    std::vector<Op> ops = {Compute(10), Syscall(MakeRead()), Compute(10),
                           Syscall(MakeWrite("ok"))};
    if (barrier) {
      ops.push_back(Barrier(0));
    }
    const VariantTrace leader = SimpleVariant("leader", 1.0, ops);
    ASSERT_EQ(EagerShaped(leader), !barrier);
    VariantTrace classified = SimpleVariant("classified", 1.2, ops);
    classified.threads[0].InsertSyscall(1, mmap_rec);
    VariantTrace unclassified = SimpleVariant("unclassified", 1.2, ops);
    nxe::ThreadTrace& thread = unclassified.threads[0];
    thread.Insert(1, {0.0, thread.AddRecord(mmap_rec), ActionKind::kSyscall});
    for (LockstepMode mode : {LockstepMode::kStrict, LockstepMode::kSelective}) {
      SCOPED_TRACE(std::string(barrier ? "with" : "without") + " a barrier, " +
                   nxe::LockstepModeName(mode));
      EngineConfig config;
      config.mode = mode;
      const Engine engine(config);

      auto skipped = engine.Run({leader, classified});
      ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
      EXPECT_TRUE(skipped->completed);
      EXPECT_EQ(skipped->ignored_syscalls, 1u);

      auto compared = engine.Run({leader, unclassified});
      ASSERT_TRUE(compared.ok()) << compared.status().ToString();
      ASSERT_TRUE(compared->divergence.has_value());
      EXPECT_EQ(compared->divergence->variant, 1u);
      EXPECT_EQ(compared->divergence->sync_index, 0u);
      EXPECT_EQ(compared->divergence->actual.rfind("mmap(", 0), 0u) << compared->divergence->actual;
      EXPECT_EQ(compared->ignored_syscalls, 0u);

      auto reference = engine.RunReference({leader, unclassified});
      ASSERT_TRUE(reference.ok());
      EXPECT_TRUE(reference->completed);
    }
  }
}

// `trace` with each syscall pointed at a record of its own: an equal copy of
// the one it named, which may be shared with other traces.
VariantTrace WithOwnRecords(VariantTrace trace) {
  for (nxe::ThreadTrace& thread : trace.threads) {
    for (size_t i = 0; i < thread.actions.size(); ++i) {
      if (thread.actions[i].kind == ActionKind::kSyscall) {
        const sc::SyscallRecord copy = thread.RecordOf(thread.actions[i]);
        thread.ReplaceRecord(i, copy);
      }
    }
  }
  return trace;
}

// Followers derived from the leader's template name its records; followers
// whose records are distinct objects of equal content must run exactly
// alike, on the eager path (perlbench) and on the event scheduler
// (radiosity's locks and barriers).
TEST(SyncClassTest, EqualRecordsInDistinctObjectsRunLikeSharedOnes) {
  for (const char* name : {"perlbench", "radiosity"}) {
    const workload::BenchmarkSpec* bench = workload::FindBenchmark(name);
    ASSERT_NE(bench, nullptr);
    const std::vector<VariantTrace> shared = workload::BuildIdenticalVariants(*bench, 3, 11);
    ASSERT_EQ(EagerShaped(shared[0]), std::string(name) == "perlbench");
    std::vector<VariantTrace> copied = shared;
    copied[1] = WithOwnRecords(copied[1]);
    copied[2] = WithOwnRecords(copied[2]);
    const nxe::ThreadTrace& leader = shared[0].threads[0];
    const nxe::ThreadTrace& follower = shared[1].threads[0];
    const nxe::ThreadTrace& own = copied[1].threads[0];
    size_t syscalls = 0;
    for (size_t i = 0; i < leader.actions.size(); ++i) {
      if (leader.actions[i].kind != ActionKind::kSyscall) {
        continue;
      }
      ++syscalls;
      EXPECT_EQ(&follower.RecordOf(follower.actions[i]), &leader.RecordOf(leader.actions[i]));
      EXPECT_NE(&own.RecordOf(own.actions[i]), &leader.RecordOf(leader.actions[i]));
      EXPECT_EQ(own.actions[i].sync, leader.actions[i].sync);
    }
    ASSERT_GT(syscalls, 0u);
    for (LockstepMode mode : {LockstepMode::kStrict, LockstepMode::kSelective}) {
      SCOPED_TRACE(std::string(name) + ", " + nxe::LockstepModeName(mode));
      EngineConfig config;
      config.mode = mode;
      config.ring_capacity = 4;  // back-pressure engages
      auto a = Engine(config).Run(shared);
      auto b = Engine(config).Run(copied);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_TRUE(a->completed);
      ExpectSameReport(*a, *b);
    }
  }
}

// A divergence overlay is a new record, never a write to the shared one, so
// comparing by address first cannot hide it: the eager path bails on it
// (perlbench) and the event scheduler reports it (radiosity), with the
// reference scheduler's report.
TEST(SyncClassTest, DivergenceOverlayIsCaughtOnBothSchedulerPaths) {
  for (const char* name : {"perlbench", "radiosity"}) {
    for (LockstepMode mode : {LockstepMode::kStrict, LockstepMode::kSelective}) {
      SCOPED_TRACE(std::string(name) + ", " + nxe::LockstepModeName(mode));
      auto plan = api::NvxBuilder()
                      .Benchmark(*workload::FindBenchmark(name))
                      .Variants(3)
                      .Lockstep(mode)
                      .InjectDivergence(2, "exfiltrated")
                      .PlanVariants();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      std::vector<VariantTrace> traces;
      ASSERT_TRUE(api::BuildPlanTraces(*plan, {0, 1, 2}, plan->seed, &traces).ok());
      ASSERT_EQ(EagerShaped(traces[0]), std::string(name) == "perlbench");
      const Engine engine(plan->engine_config);
      auto report = engine.Run(traces);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_TRUE(report->divergence.has_value());
      EXPECT_EQ(report->divergence->variant, 2u);
      auto reference = engine.RunReference(traces);
      ASSERT_TRUE(reference.ok());
      ExpectSameReport(*report, *reference);
    }
  }
}

TEST(CostModelTest, LlcMultiplierMonotone) {
  nxe::CostModel cm;
  double prev = 0.0;
  for (size_t n = 1; n <= 8; ++n) {
    const double mult = cm.LlcMultiplier(n, 1.0);
    EXPECT_GE(mult, 1.0);
    EXPECT_GE(mult, prev);
    prev = mult;
  }
}

TEST(CostModelTest, LoadInflatesWakeups) {
  nxe::CostModel idle;
  idle.background_load = 0.02;
  nxe::CostModel busy;
  busy.background_load = 0.99;
  EXPECT_GT(busy.WakeupCost(), idle.WakeupCost());
}

}  // namespace
}  // namespace bunshin
