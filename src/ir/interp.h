// IR interpreter.
//
// Executes a module function with a flat word-addressable memory. The
// interpreter produces:
//  * the returned value (or trap/detection outcome),
//  * the stream of *observable events* (external calls — our stand-in for
//    syscalls), which is what the NXE compares across variants,
//  * per-function executed-instruction counts, which the profiler uses to
//    measure baseline vs instrumented cost (§3.2 profiling).
//
// Memory errors behave like C: an out-of-bounds index that still lands inside
// the flat memory silently reads/writes a neighbor (exploitable); only
// escaping the flat memory entirely traps. A sanitizer-inserted check that
// fires reaches a handler call (name prefixed "__" and containing "_report")
// and the run ends with Outcome::kDetected — mirroring a sanitizer abort.
#ifndef BUNSHIN_SRC_IR_INTERP_H_
#define BUNSHIN_SRC_IR_INTERP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace bunshin {
namespace ir {

struct ExecEvent {
  std::string callee;
  std::vector<int64_t> args;
  int64_t result = 0;

  bool operator==(const ExecEvent& other) const {
    return callee == other.callee && args == other.args && result == other.result;
  }
};

enum class Outcome {
  kReturned,   // normal return from the entry function
  kDetected,   // a sanitizer report handler was reached (check fired)
  kTrapped,    // unreachable / div-by-zero / wild memory access / bad call
  kOutOfFuel,  // instruction budget exhausted (likely a loop bug in the input)
};

struct ExecResult {
  Outcome outcome = Outcome::kTrapped;
  int64_t return_value = 0;
  std::string trap_reason;
  std::string detector;  // handler name when outcome == kDetected
  std::vector<ExecEvent> events;
  uint64_t steps = 0;
  // Weighted cost: memory accesses and calls are more expensive than ALU ops
  // (see OpCost). This is what the profiler reads as "execution time".
  uint64_t cost = 0;
  std::map<std::string, uint64_t> per_function_steps;
  std::map<std::string, uint64_t> per_function_cost;
};

// Abstract cycle cost of executing one instruction of the given opcode.
uint64_t OpCost(Opcode op, BinOp bin_op);

class Interpreter {
 public:
  explicit Interpreter(const Module* module);

  // Instruction budget for a whole run (including callees).
  void set_fuel(uint64_t fuel) { fuel_ = fuel; }
  // Words of flat memory available to allocas.
  void set_memory_words(size_t words) { memory_words_ = words; }

  // Calls to a function the module does not define are recorded as
  // observable events that return 0.
  ExecResult Run(const std::string& entry, const std::vector<int64_t>& args);

 private:
  struct Frame;

  // Returns true to continue, false to stop (trap/detect/fuel).
  int64_t Eval(const Frame& frame, const Value& v) const;
  bool RunFunction(const Function& fn, const std::vector<int64_t>& args, int depth,
                   int64_t* ret_out, ExecResult* result);

  const Module* module_;
  uint64_t fuel_ = 10'000'000;
  size_t memory_words_ = 1 << 20;

  // Per-run state.
  std::vector<int64_t> memory_;
  size_t brk_ = 0;  // bump allocation cursor
};

// Convenience: true when `name` is a sanitizer report handler (sink call).
bool IsReportHandler(const std::string& name);

}  // namespace ir
}  // namespace bunshin

#endif  // BUNSHIN_SRC_IR_INTERP_H_
