// Unit tests for the IR core: builder, verifier, interpreter.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/ir.h"
#include "src/ir/verifier.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

TEST(IrTest, BufferProgramVerifies) {
  auto module = testutil::BuildBufferProgram();
  EXPECT_TRUE(ir::VerifyModule(*module).ok());
}

TEST(IrTest, BufferProgramComputes) {
  auto module = testutil::BuildBufferProgram();
  ir::Interpreter interp(module.get());
  for (int idx = 0; idx < 4; ++idx) {
    ir::ExecResult result = interp.Run("main", {idx});
    ASSERT_EQ(result.outcome, ir::Outcome::kReturned);
    EXPECT_EQ(result.return_value, idx * 10);
    ASSERT_EQ(result.events.size(), 1u);
    EXPECT_EQ(result.events[0].callee, "print");
    EXPECT_EQ(result.events[0].args[0], idx * 10);
  }
}

TEST(IrTest, OutOfBoundsReadIsSilentWithoutSanitizer) {
  // The memory error goes unnoticed, as in an unprotected C program.
  auto module = testutil::BuildBufferProgram();
  ir::Interpreter interp(module.get());
  ir::ExecResult result = interp.Run("main", {4});
  EXPECT_EQ(result.outcome, ir::Outcome::kReturned);
}

TEST(IrTest, DivByZeroTraps) {
  auto module = testutil::BuildArithProgram();
  ir::Interpreter interp(module.get());
  ir::ExecResult result = interp.Run("main", {10, 0});
  EXPECT_EQ(result.outcome, ir::Outcome::kTrapped);
  EXPECT_NE(result.trap_reason.find("division by zero"), std::string::npos);
}

TEST(IrTest, MultiFunctionProgramComputes) {
  auto module = testutil::BuildMultiFunctionProgram();
  ASSERT_TRUE(ir::VerifyModule(*module).ok());
  ir::Interpreter interp(module.get());
  ir::ExecResult result = interp.Run("main", {5});
  ASSERT_EQ(result.outcome, ir::Outcome::kReturned);
  // hot(5) = 0+1+4+9+16 = 30; warm(5) = 5 + 15 + 20 = 20... buf[2] = 5+15;
  // cold(5) = 5. Total = 30 + 20 + 5 = 55.
  EXPECT_EQ(result.return_value, 55);
  EXPECT_GT(result.per_function_steps.at("hot"), result.per_function_steps.at("cold"));
}

TEST(IrTest, PerFunctionCostsAccumulate) {
  auto module = testutil::BuildMultiFunctionProgram();
  ir::Interpreter interp(module.get());
  ir::ExecResult result = interp.Run("main", {50});
  ASSERT_EQ(result.outcome, ir::Outcome::kReturned);
  uint64_t sum = 0;
  for (const auto& [fn, cost] : result.per_function_cost) {
    sum += cost;
  }
  EXPECT_EQ(sum, result.cost);
}

TEST(IrTest, FuelLimitStopsRunawayLoops) {
  auto module = std::make_unique<ir::Module>();
  ir::Function* fn = module->AddFunction("main", 0);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  b.Br(entry);  // infinite loop
  ir::Interpreter interp(module.get());
  interp.set_fuel(1000);
  ir::ExecResult result = interp.Run("main", {});
  EXPECT_EQ(result.outcome, ir::Outcome::kOutOfFuel);
}

TEST(IrTest, PhiSelectsByPredecessor) {
  auto module = std::make_unique<ir::Module>();
  ir::Function* fn = module->AddFunction("main", 1);
  const ir::BlockId entry = fn->AddBlock("entry");
  const ir::BlockId left = fn->AddBlock("left");
  const ir::BlockId right = fn->AddBlock("right");
  const ir::BlockId join = fn->AddBlock("join");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  const ir::Value cond = b.Cmp(ir::CmpPred::kGt, ir::Value::Arg(0), ir::Value::Const(0));
  b.CondBr(cond, left, right);
  b.SetInsertPoint(left);
  b.Br(join);
  b.SetInsertPoint(right);
  b.Br(join);
  b.SetInsertPoint(join);
  const ir::Value phi = b.Phi({{left, ir::Value::Const(111)}, {right, ir::Value::Const(222)}});
  b.Ret(phi);
  ASSERT_TRUE(ir::VerifyModule(*module).ok());

  ir::Interpreter interp(module.get());
  EXPECT_EQ(interp.Run("main", {5}).return_value, 111);
  EXPECT_EQ(interp.Run("main", {-5}).return_value, 222);
}

TEST(IrTest, VerifierCatchesMissingTerminator) {
  ir::Module module;
  ir::Function* fn = module.AddFunction("broken", 0);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  b.Add(ir::Value::Const(1), ir::Value::Const(2));  // no terminator
  EXPECT_FALSE(ir::VerifyModule(module).ok());
}

TEST(IrTest, VerifierCatchesBadBranchTarget) {
  ir::Module module;
  ir::Function* fn = module.AddFunction("broken", 0);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  b.Br(99);
  EXPECT_FALSE(ir::VerifyModule(module).ok());
}

TEST(IrTest, VerifierCatchesUndefinedValueUse) {
  ir::Module module;
  ir::Function* fn = module.AddFunction("broken", 0);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  b.Ret(ir::Value::Inst(4242));
  EXPECT_FALSE(ir::VerifyModule(module).ok());
}

TEST(IrTest, CloneIsDeepAndIdentical) {
  auto module = testutil::BuildMultiFunctionProgram();
  auto clone = module->Clone();
  EXPECT_EQ(testutil::ModuleToString(*module), testutil::ModuleToString(*clone));
  // Mutating the clone must not affect the original.
  testutil::MutableFunction(*clone, "main")->mutable_blocks()[0].insts.clear();
  EXPECT_NE(testutil::ModuleToString(*module), testutil::ModuleToString(*clone));
}

TEST(IrTest, MemsetIntrinsicWritesMemoryWithoutEvents) {
  ir::Module module;
  ir::Function* fn = module.AddFunction("main", 0);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  const ir::Value buf = b.Alloca(ir::Value::Const(4));
  b.Call("__intrin_memset", {buf, ir::Value::Const(4), ir::Value::Const(9)});
  const ir::Value v = b.Load(b.Add(buf, ir::Value::Const(2)));
  b.Ret(v);
  ir::Interpreter interp(&module);
  ir::ExecResult result = interp.Run("main", {});
  ASSERT_EQ(result.outcome, ir::Outcome::kReturned);
  EXPECT_EQ(result.return_value, 9);
  EXPECT_TRUE(result.events.empty());
}

}  // namespace
}  // namespace bunshin
