// Shared IR test programs and test helpers used across the test suite.
#ifndef BUNSHIN_TESTS_TESTUTIL_H_
#define BUNSHIN_TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "src/api/async.h"
#include "src/ir/builder.h"
#include "src/ir/ir.h"
#include "src/net/wire.h"
#include "src/profile/profiler.h"
#include "src/support/socket.h"

namespace bunshin {
namespace testutil {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

// The module's function named `name`, for tests that edit a program in
// place (Module's own lookup is read-only); null when absent.
inline ir::Function* MutableFunction(ir::Module& module, const std::string& name) {
  for (const auto& fn : module.functions()) {
    if (fn->name() == name) {
      return fn.get();
    }
  }
  return nullptr;
}

// A listing of every function, block and instruction: two modules list
// alike exactly when they hold the same program.
inline std::string ModuleToString(const ir::Module& module) {
  std::ostringstream out;
  for (const auto& fn : module.functions()) {
    out << "func @" << fn->name() << "(" << fn->num_args() << " args) {\n";
    for (const auto& bb : fn->blocks()) {
      out << " bb" << bb.id << " (" << bb.label << "):\n";
      for (const auto& inst : bb.insts) {
        out << "    " << ir::InstToString(inst) << "\n";
      }
    }
    out << "}\n";
  }
  return out.str();
}

// Whole-program slowdown fraction of a profile (O_total / baseline).
inline double TotalOverhead(const profile::OverheadProfile& profile) {
  if (profile.baseline_total == 0) {
    return 0.0;
  }
  return static_cast<double>(profile.instrumented_total - profile.baseline_total) /
         static_cast<double>(profile.baseline_total);
}

// A token no test submits under: pushed behind the events a queue holds, it
// comes out only after all of them.
constexpr uint64_t kSentinelToken = ~uint64_t{0};

inline void PushSentinel(api::CompletionQueue& queue) {
  queue.Push(api::CompletionEvent{kSentinelToken, api::RunReport()});
}

// No event is left in `queue`: a sentinel pushed now is the next one out.
inline void ExpectDrained(api::CompletionQueue& queue) {
  PushSentinel(queue);
  EXPECT_EQ(queue.Wait().token, kSentinelToken) << "an event was left in the queue";
}

// Sends `bytes` down an in-process connection, closes it, and reads one
// frame from the other end with the production reader.
inline StatusOr<net::Frame> ReadFrameFrom(std::string_view bytes) {
  auto [sender, receiver] = support::LoopbackSocketPair();
  const Status sent = sender->SendAll(bytes.data(), bytes.size());
  if (!sent.ok()) {
    return sent;
  }
  sender->Close();
  return net::ReadFrame(*receiver);
}

// Peak resident set of this process in KiB (VmHWM); 0 when unavailable.
inline size_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoul(line.substr(6));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// IR programs.
// ---------------------------------------------------------------------------

// main(idx):
//   buf = alloca 4; buf[i] = i*10 for i in 0..3;
//   v = load buf[idx];          // OOB when idx outside [0,4): classic overflow
//   print(v); return v;
inline std::unique_ptr<ir::Module> BuildBufferProgram() {
  auto module = std::make_unique<ir::Module>();
  ir::Function* fn = module->AddFunction("main", 1);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  const ir::Value buf = b.Alloca(ir::Value::Const(4));
  for (int i = 0; i < 4; ++i) {
    b.Store(b.Add(buf, ir::Value::Const(i)), ir::Value::Const(i * 10));
  }
  const ir::Value addr = b.Add(buf, ir::Value::Arg(0));
  const ir::Value v = b.Load(addr);
  b.Call("print", {v});
  b.Ret(v);
  return module;
}

// main(a, b):
//   s = a + b; q = a / b; t = a << b; print(s+q+t); return s+q+t
// Triggers signed overflow / div-by-zero / bad shift for suitable inputs.
inline std::unique_ptr<ir::Module> BuildArithProgram() {
  auto module = std::make_unique<ir::Module>();
  ir::Function* fn = module->AddFunction("main", 2);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  const ir::Value s = b.Add(ir::Value::Arg(0), ir::Value::Arg(1));
  const ir::Value q = b.Div(ir::Value::Arg(0), ir::Value::Arg(1));
  const ir::Value t = b.Shl(ir::Value::Arg(0), ir::Value::Arg(1));
  const ir::Value sum = b.Add(b.Add(s, q), t);
  b.Call("print", {sum});
  b.Ret(sum);
  return module;
}

// main(flag):
//   buf = alloca 2;
//   if (flag) store buf[0], 7;
//   v = load buf[0];             // uninitialized when flag == 0
//   print(v); return v
inline std::unique_ptr<ir::Module> BuildUninitProgram() {
  auto module = std::make_unique<ir::Module>();
  ir::Function* fn = module->AddFunction("main", 1);
  const ir::BlockId entry = fn->AddBlock("entry");
  const ir::BlockId init = fn->AddBlock("init");
  const ir::BlockId cont = fn->AddBlock("cont");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  const ir::Value buf = b.Alloca(ir::Value::Const(2));
  const ir::Value cond = b.Cmp(ir::CmpPred::kNe, ir::Value::Arg(0), ir::Value::Const(0));
  b.CondBr(cond, init, cont);
  b.SetInsertPoint(init);
  b.Store(buf, ir::Value::Const(7));
  b.Br(cont);
  b.SetInsertPoint(cont);
  const ir::Value v = b.Load(buf);
  b.Call("print", {v});
  b.Ret(v);
  return module;
}

// A three-function program for check distribution:
//   hot(n): loop summing i*i for i<n (heavy, has memory traffic)
//   warm(x): buf math with loads/stores
//   cold(x): one store/load
//   main(n): print(hot(n) + warm(n) + cold(n))
inline std::unique_ptr<ir::Module> BuildMultiFunctionProgram() {
  auto module = std::make_unique<ir::Module>();

  {
    ir::Function* fn = module->AddFunction("hot", 1);
    const ir::BlockId entry = fn->AddBlock("entry");
    const ir::BlockId loop = fn->AddBlock("loop");
    const ir::BlockId body = fn->AddBlock("body");
    const ir::BlockId done = fn->AddBlock("done");
    ir::IrBuilder b(fn);
    b.SetInsertPoint(entry);
    const ir::Value acc = b.Alloca(ir::Value::Const(1));
    const ir::Value idx = b.Alloca(ir::Value::Const(1));
    b.Store(acc, ir::Value::Const(0));
    b.Store(idx, ir::Value::Const(0));
    b.Br(loop);
    b.SetInsertPoint(loop);
    const ir::Value i = b.Load(idx);
    const ir::Value cond = b.Cmp(ir::CmpPred::kLt, i, ir::Value::Arg(0));
    b.CondBr(cond, body, done);
    b.SetInsertPoint(body);
    const ir::Value sq = b.Mul(i, i);
    b.Store(acc, b.Add(b.Load(acc), sq));
    b.Store(idx, b.Add(i, ir::Value::Const(1)));
    b.Br(loop);
    b.SetInsertPoint(done);
    b.Ret(b.Load(acc));
  }
  {
    ir::Function* fn = module->AddFunction("warm", 1);
    const ir::BlockId entry = fn->AddBlock("entry");
    ir::IrBuilder b(fn);
    b.SetInsertPoint(entry);
    const ir::Value buf = b.Alloca(ir::Value::Const(3));
    b.Store(buf, ir::Value::Arg(0));
    b.Store(b.Add(buf, ir::Value::Const(1)), b.Mul(ir::Value::Arg(0), ir::Value::Const(3)));
    b.Store(b.Add(buf, ir::Value::Const(2)),
            b.Add(b.Load(buf), b.Load(b.Add(buf, ir::Value::Const(1)))));
    b.Ret(b.Load(b.Add(buf, ir::Value::Const(2))));
  }
  {
    ir::Function* fn = module->AddFunction("cold", 1);
    const ir::BlockId entry = fn->AddBlock("entry");
    ir::IrBuilder b(fn);
    b.SetInsertPoint(entry);
    const ir::Value buf = b.Alloca(ir::Value::Const(1));
    b.Store(buf, ir::Value::Arg(0));
    b.Ret(b.Load(buf));
  }
  {
    ir::Function* fn = module->AddFunction("main", 1);
    const ir::BlockId entry = fn->AddBlock("entry");
    ir::IrBuilder b(fn);
    b.SetInsertPoint(entry);
    const ir::Value h = b.Call("hot", {ir::Value::Arg(0)});
    const ir::Value w = b.Call("warm", {ir::Value::Arg(0)});
    const ir::Value c = b.Call("cold", {ir::Value::Arg(0)});
    const ir::Value sum = b.Add(b.Add(h, w), c);
    b.Call("print", {sum});
    b.Ret(sum);
  }
  return module;
}

}  // namespace testutil
}  // namespace bunshin

#endif  // BUNSHIN_TESTS_TESTUTIL_H_
