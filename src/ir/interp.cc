#include "src/ir/interp.h"

#include <cassert>

namespace bunshin {
namespace ir {

namespace {
constexpr int kMaxCallDepth = 64;
}  // namespace

uint64_t OpCost(Opcode op, BinOp bin_op) {
  switch (op) {
    case Opcode::kLoad:
    case Opcode::kStore:
      return 3;  // cache-hit memory access
    case Opcode::kCall:
      return 5;  // call/ret + argument shuffling
    case Opcode::kAlloca:
      return 2;
    case Opcode::kBinOp:
      return (bin_op == BinOp::kDiv || bin_op == BinOp::kRem) ? 10 : 1;
    default:
      return 1;
  }
}

bool IsReportHandler(const std::string& name) {
  return name.rfind("__", 0) == 0 && name.find("_report") != std::string::npos;
}

struct Interpreter::Frame {
  const Function* fn;
  const std::vector<int64_t>* args;
  std::map<InstId, int64_t> values;
};

Interpreter::Interpreter(const Module* module) : module_(module) {}

int64_t Interpreter::Eval(const Frame& frame, const Value& v) const {
  switch (v.kind) {
    case Value::Kind::kConst:
      return v.imm;
    case Value::Kind::kArg:
      return v.index < frame.args->size() ? (*frame.args)[v.index] : 0;
    case Value::Kind::kInst: {
      auto it = frame.values.find(v.index);
      return it == frame.values.end() ? 0 : it->second;
    }
  }
  return 0;
}

bool Interpreter::RunFunction(const Function& fn, const std::vector<int64_t>& args, int depth,
                              int64_t* ret_out, ExecResult* result) {
  if (depth > kMaxCallDepth) {
    result->outcome = Outcome::kTrapped;
    result->trap_reason = "call depth exceeded in @" + fn.name();
    return false;
  }

  Frame frame{&fn, &args, {}};
  BlockId current = fn.entry();
  BlockId previous = current;
  uint64_t& fn_steps = result->per_function_steps[fn.name()];
  uint64_t& fn_cost = result->per_function_cost[fn.name()];

  for (;;) {
    const BasicBlock* bb = fn.block(current);
    if (bb == nullptr || bb->insts.empty()) {
      result->outcome = Outcome::kTrapped;
      result->trap_reason = "fell into invalid block in @" + fn.name();
      return false;
    }

    for (size_t idx = 0; idx < bb->insts.size(); ++idx) {
      const Instruction& inst = bb->insts[idx];
      if (result->steps >= fuel_) {
        result->outcome = Outcome::kOutOfFuel;
        result->trap_reason = "fuel exhausted in @" + fn.name();
        return false;
      }
      ++result->steps;
      ++fn_steps;
      const uint64_t op_cost = OpCost(inst.op, inst.bin_op);
      result->cost += op_cost;
      fn_cost += op_cost;

      switch (inst.op) {
        case Opcode::kConst:
          frame.values[inst.id] = inst.operands.empty() ? 0 : inst.operands[0].imm;
          break;

        case Opcode::kBinOp: {
          const int64_t a = Eval(frame, inst.operands[0]);
          const int64_t b = Eval(frame, inst.operands[1]);
          int64_t out = 0;
          switch (inst.bin_op) {
            case BinOp::kAdd:
              out = a + b;
              break;
            case BinOp::kSub:
              out = a - b;
              break;
            case BinOp::kMul:
              out = a * b;
              break;
            case BinOp::kDiv:
              if (b == 0) {
                result->outcome = Outcome::kTrapped;
                result->trap_reason = "division by zero in @" + fn.name();
                return false;
              }
              out = a / b;
              break;
            case BinOp::kRem:
              if (b == 0) {
                result->outcome = Outcome::kTrapped;
                result->trap_reason = "remainder by zero in @" + fn.name();
                return false;
              }
              out = a % b;
              break;
            case BinOp::kAnd:
              out = a & b;
              break;
            case BinOp::kOr:
              out = a | b;
              break;
            case BinOp::kXor:
              out = a ^ b;
              break;
            case BinOp::kShl:
              out = static_cast<int64_t>(static_cast<uint64_t>(a)
                                         << (static_cast<uint64_t>(b) & 63));
              break;
            case BinOp::kShr:
              out = static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                         (static_cast<uint64_t>(b) & 63));
              break;
          }
          frame.values[inst.id] = out;
          break;
        }

        case Opcode::kCmp: {
          const int64_t a = Eval(frame, inst.operands[0]);
          const int64_t b = Eval(frame, inst.operands[1]);
          bool out = false;
          switch (inst.pred) {
            case CmpPred::kEq:
              out = a == b;
              break;
            case CmpPred::kNe:
              out = a != b;
              break;
            case CmpPred::kLt:
              out = a < b;
              break;
            case CmpPred::kLe:
              out = a <= b;
              break;
            case CmpPred::kGt:
              out = a > b;
              break;
            case CmpPred::kGe:
              out = a >= b;
              break;
          }
          frame.values[inst.id] = out ? 1 : 0;
          break;
        }

        case Opcode::kSelect:
          frame.values[inst.id] = Eval(frame, inst.operands[0]) != 0
                                      ? Eval(frame, inst.operands[1])
                                      : Eval(frame, inst.operands[2]);
          break;

        case Opcode::kAlloca: {
          const int64_t count = Eval(frame, inst.operands[0]);
          if (count < 0 || brk_ + static_cast<size_t>(count) > memory_words_) {
            result->outcome = Outcome::kTrapped;
            result->trap_reason = "alloca out of memory in @" + fn.name();
            return false;
          }
          frame.values[inst.id] = static_cast<int64_t>(brk_);
          brk_ += static_cast<size_t>(count);
          break;
        }

        case Opcode::kLoad: {
          const int64_t addr = Eval(frame, inst.operands[0]);
          if (addr < 0 || static_cast<size_t>(addr) >= memory_words_) {
            result->outcome = Outcome::kTrapped;
            result->trap_reason = "wild load in @" + fn.name();
            return false;
          }
          frame.values[inst.id] = memory_[static_cast<size_t>(addr)];
          break;
        }

        case Opcode::kStore: {
          const int64_t addr = Eval(frame, inst.operands[0]);
          if (addr < 0 || static_cast<size_t>(addr) >= memory_words_) {
            result->outcome = Outcome::kTrapped;
            result->trap_reason = "wild store in @" + fn.name();
            return false;
          }
          memory_[static_cast<size_t>(addr)] = Eval(frame, inst.operands[1]);
          break;
        }

        case Opcode::kCall: {
          std::vector<int64_t> call_args;
          call_args.reserve(inst.operands.size());
          for (const auto& operand : inst.operands) {
            call_args.push_back(Eval(frame, operand));
          }
          if (inst.callee == "__intrin_memset") {
            // Inline memory intrinsic (addr, count, value): writes memory but
            // is not an observable event — like a lowered memset.
            const int64_t addr = call_args.size() > 0 ? call_args[0] : 0;
            const int64_t count = call_args.size() > 1 ? call_args[1] : 0;
            const int64_t value = call_args.size() > 2 ? call_args[2] : 0;
            if (addr < 0 || count < 0 ||
                static_cast<size_t>(addr + count) > memory_words_) {
              result->outcome = Outcome::kTrapped;
              result->trap_reason = "memset out of range in @" + fn.name();
              return false;
            }
            for (int64_t i = 0; i < count; ++i) {
              memory_[static_cast<size_t>(addr + i)] = value;
            }
            frame.values[inst.id] = 0;
            break;
          }
          if (IsReportHandler(inst.callee)) {
            // Sanitizer check fired: record and stop, like an ASan abort.
            result->outcome = Outcome::kDetected;
            result->detector = inst.callee;
            result->events.push_back(ExecEvent{inst.callee, call_args, 0});
            return false;
          }
          const Function* callee = module_->GetFunction(inst.callee);
          if (callee != nullptr) {
            int64_t ret = 0;
            if (!RunFunction(*callee, call_args, depth + 1, &ret, result)) {
              return false;
            }
            frame.values[inst.id] = ret;
          } else {
            // External call: observable event (our syscall analogue).
            result->events.push_back(ExecEvent{inst.callee, call_args, 0});
            frame.values[inst.id] = 0;
          }
          break;
        }

        case Opcode::kPhi: {
          int64_t out = 0;
          bool found = false;
          for (const auto& incoming : inst.incomings) {
            if (incoming.pred == previous) {
              out = Eval(frame, incoming.value);
              found = true;
              break;
            }
          }
          if (!found) {
            result->outcome = Outcome::kTrapped;
            result->trap_reason = "phi with no matching predecessor in @" + fn.name();
            return false;
          }
          frame.values[inst.id] = out;
          break;
        }

        case Opcode::kBr:
          previous = current;
          current = inst.target;
          goto next_block;

        case Opcode::kCondBr:
          previous = current;
          current = Eval(frame, inst.operands[0]) != 0 ? inst.target : inst.alt_target;
          goto next_block;

        case Opcode::kRet:
          *ret_out = inst.operands.empty() ? 0 : Eval(frame, inst.operands[0]);
          return true;

        case Opcode::kUnreachable:
          result->outcome = Outcome::kTrapped;
          result->trap_reason = "unreachable executed in @" + fn.name();
          return false;
      }
    }
    // A verified block always ends in a terminator, so we never fall out.
    result->outcome = Outcome::kTrapped;
    result->trap_reason = "block without terminator in @" + fn.name();
    return false;

  next_block:;
  }
}

ExecResult Interpreter::Run(const std::string& entry, const std::vector<int64_t>& args) {
  ExecResult result;
  const Function* fn = module_->GetFunction(entry);
  if (fn == nullptr) {
    result.outcome = Outcome::kTrapped;
    result.trap_reason = "no such function @" + entry;
    return result;
  }
  memory_.assign(memory_words_, 0);
  brk_ = 1;  // keep address 0 as a sentinel "null"
  int64_t ret = 0;
  if (RunFunction(*fn, args, 0, &ret, &result)) {
    result.outcome = Outcome::kReturned;
    result.return_value = ret;
  }
  return result;
}

}  // namespace ir
}  // namespace bunshin
