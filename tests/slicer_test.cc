// Tests for check discovery and backward-slicing removal (§4.1).
#include <gtest/gtest.h>

#include "src/ir/interp.h"
#include "src/ir/verifier.h"
#include "src/sanitizer/asan_pass.h"
#include "src/sanitizer/msan_pass.h"
#include "src/sanitizer/ubsan_pass.h"
#include "src/slicing/slicer.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

// Ground truth: count instructions tagged kCheck (the slicer must not read
// the tag, but tests may).
size_t CountByOrigin(const ir::Function& fn, ir::InstOrigin origin) {
  size_t n = 0;
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb.insts) {
      if (inst.origin == origin) {
        ++n;
      }
    }
  }
  return n;
}

TEST(SlicerTest, DiscoversExactlyTheInsertedChecks) {
  auto module = testutil::BuildBufferProgram();
  san::AsanPass pass;
  auto stats = pass.Run(module.get());
  ASSERT_TRUE(stats.ok());

  const ir::Function* fn = module->GetFunction("main");
  const auto sites = slicing::DiscoverChecks(*fn);
  EXPECT_EQ(sites.size(), stats->checks_inserted);

  // Every sliced instruction must be tagged kCheck (no original or metadata
  // instruction may ever be deleted), and the branch must be a check branch.
  for (const auto& site : sites) {
    for (ir::InstId id : site.sliced_insts) {
      ir::BlockId block = 0;
      size_t index = 0;
      ASSERT_TRUE(fn->Locate(id, &block, &index));
      EXPECT_EQ(fn->block(block)->insts[index].origin, ir::InstOrigin::kCheck)
          << ir::InstToString(fn->block(block)->insts[index]);
    }
  }
}

TEST(SlicerTest, DiscoveryIgnoresMetadata) {
  // A module instrumented with metadata only (no checks fired in): build
  // ASan instrumentation, remove checks, re-discover: zero sites.
  auto module = testutil::BuildBufferProgram();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(module.get()).ok());
  ir::Function* fn = testutil::MutableFunction(*module, "main");
  slicing::RemoveChecks(fn);
  EXPECT_TRUE(slicing::DiscoverChecks(*fn).empty());
  // Metadata is still there.
  EXPECT_GT(CountByOrigin(*fn, ir::InstOrigin::kMetadata), 0u);
}

TEST(SlicerTest, RemovalRestoresBaselineSemantics) {
  auto baseline = testutil::BuildBufferProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());

  auto deinstrumented = instrumented->Clone();
  const auto removal =
      slicing::RemoveChecks(testutil::MutableFunction(*deinstrumented, "main"));
  EXPECT_GT(removal.checks_removed, 0u);
  ASSERT_TRUE(ir::VerifyModule(*deinstrumented).ok())
      << ir::VerifyModule(*deinstrumented).message();

  ir::Interpreter base_interp(baseline.get());
  ir::Interpreter deinst_interp(deinstrumented.get());
  for (int idx = -1; idx <= 4; ++idx) {
    // Note: includes the OOB inputs — after removal the checks are gone, so
    // the de-instrumented variant behaves exactly like the baseline again.
    ir::ExecResult base = base_interp.Run("main", {idx});
    ir::ExecResult deinst = deinst_interp.Run("main", {idx});
    EXPECT_EQ(base.outcome, deinst.outcome) << "idx=" << idx;
    EXPECT_EQ(base.return_value, deinst.return_value) << "idx=" << idx;
    EXPECT_EQ(base.events, deinst.events) << "idx=" << idx;
  }
}

TEST(SlicerTest, RemovalDeletesAllCheckInstructions) {
  auto module = testutil::BuildBufferProgram();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(module.get()).ok());
  ir::Function* fn = testutil::MutableFunction(*module, "main");
  const size_t metadata_before = CountByOrigin(*fn, ir::InstOrigin::kMetadata);
  ASSERT_GT(CountByOrigin(*fn, ir::InstOrigin::kCheck), 0u);

  slicing::RemoveChecks(fn);

  // All check-origin instructions gone except the rewritten branches (the
  // condbr slots become plain unconditional branches, retagged original).
  EXPECT_EQ(CountByOrigin(*fn, ir::InstOrigin::kCheck), 0u);
  // Metadata must be fully preserved (§3.1: removing it breaks the sanitizer).
  EXPECT_EQ(CountByOrigin(*fn, ir::InstOrigin::kMetadata), metadata_before);
}

TEST(SlicerTest, WorksForMsanChecks) {
  auto baseline = testutil::BuildUninitProgram();
  auto instrumented = baseline->Clone();
  san::MsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());
  auto removed = instrumented->Clone();
  slicing::RemoveChecks(testutil::MutableFunction(*removed, "main"));
  ASSERT_TRUE(ir::VerifyModule(*removed).ok());

  // After removal, even the buggy input runs to completion (check gone).
  ir::Interpreter interp(removed.get());
  EXPECT_EQ(interp.Run("main", {0}).outcome, ir::Outcome::kReturned);
}

TEST(SlicerTest, WorksForUbsanChecks) {
  auto module = testutil::BuildArithProgram();
  san::UbsanPass pass;
  ASSERT_TRUE(pass.Run(module.get()).ok());
  slicing::RemoveChecks(testutil::MutableFunction(*module, "main"));
  ASSERT_TRUE(ir::VerifyModule(*module).ok());
  ir::Interpreter interp(module.get());
  // Div-by-zero is UB again (traps) rather than detected.
  EXPECT_EQ(interp.Run("main", {10, 0}).outcome, ir::Outcome::kTrapped);
  EXPECT_EQ(interp.Run("main", {20, 3}).return_value,
            20 + 3 + (20 / 3) + (20LL << 3));
}

TEST(SlicerTest, RemoveUnreachableBlocksCompacts) {
  auto module = testutil::BuildBufferProgram();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(module.get()).ok());
  ir::Function* fn = testutil::MutableFunction(*module, "main");
  const auto removal = slicing::RemoveChecks(fn);
  EXPECT_GT(removal.blocks_removed, 0u);
  // Block ids must be dense and valid after compaction.
  for (size_t i = 0; i < fn->blocks().size(); ++i) {
    EXPECT_EQ(fn->blocks()[i].id, static_cast<ir::BlockId>(i));
  }
}

TEST(SlicerTest, NoChecksNoChanges) {
  auto module = testutil::BuildBufferProgram();
  const std::string before = testutil::ModuleToString(*module);
  slicing::RemoveChecks(testutil::MutableFunction(*module, "main"));
  EXPECT_EQ(testutil::ModuleToString(*module), before);
}

TEST(SlicerTest, SharedValuesSurviveSlicing) {
  // The check condition derives from the address that the program itself
  // uses; the slicer must stop at it and not delete it.
  auto module = testutil::BuildBufferProgram();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(module.get()).ok());
  ir::Function* fn = testutil::MutableFunction(*module, "main");
  slicing::RemoveChecks(fn);
  ASSERT_TRUE(ir::VerifyModule(*module).ok());
  ir::Interpreter interp(module.get());
  EXPECT_EQ(interp.Run("main", {2}).return_value, 20);
}

}  // namespace
}  // namespace bunshin
