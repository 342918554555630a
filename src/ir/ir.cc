#include "src/ir/ir.h"

#include <sstream>

namespace bunshin {
namespace ir {

std::vector<BlockId> BasicBlock::Successors() const {
  const Instruction* term = Terminator();
  if (term == nullptr) {
    return {};
  }
  switch (term->op) {
    case Opcode::kBr:
      return {term->target};
    case Opcode::kCondBr:
      return {term->target, term->alt_target};
    default:
      return {};
  }
}

BlockId Function::AddBlock(std::string label) {
  const BlockId id = static_cast<BlockId>(blocks_.size());
  BasicBlock bb;
  bb.id = id;
  bb.label = std::move(label);
  blocks_.push_back(std::move(bb));
  return id;
}

BasicBlock* Function::block(BlockId id) {
  if (id >= blocks_.size()) {
    return nullptr;
  }
  return &blocks_[id];
}

const BasicBlock* Function::block(BlockId id) const {
  if (id >= blocks_.size()) {
    return nullptr;
  }
  return &blocks_[id];
}

bool Function::Locate(InstId id, BlockId* block_out, size_t* index_out) const {
  for (const auto& bb : blocks_) {
    for (size_t i = 0; i < bb.insts.size(); ++i) {
      if (bb.insts[i].id == id) {
        *block_out = bb.id;
        *index_out = i;
        return true;
      }
    }
  }
  return false;
}

Function* Module::AddFunction(std::string name, uint32_t num_args) {
  auto fn = std::make_unique<Function>(name, num_args);
  Function* raw = fn.get();
  functions_.push_back(std::move(fn));
  by_name_[raw->name()] = raw;
  return raw;
}

const Function* Module::GetFunction(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::unique_ptr<Module> Module::Clone() const {
  auto copy = std::make_unique<Module>();
  for (const auto& fn : functions_) {
    Function* dst = copy->AddFunction(fn->name(), fn->num_args());
    *dst = *fn;  // Function is value-copyable (vectors of PODs/strings).
  }
  return copy;
}

std::string OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kConst:
      return "const";
    case Opcode::kBinOp:
      return "binop";
    case Opcode::kCmp:
      return "cmp";
    case Opcode::kSelect:
      return "select";
    case Opcode::kAlloca:
      return "alloca";
    case Opcode::kLoad:
      return "load";
    case Opcode::kStore:
      return "store";
    case Opcode::kCall:
      return "call";
    case Opcode::kBr:
      return "br";
    case Opcode::kCondBr:
      return "condbr";
    case Opcode::kPhi:
      return "phi";
    case Opcode::kRet:
      return "ret";
    case Opcode::kUnreachable:
      return "unreachable";
  }
  return "?";
}

std::string BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "add";
    case BinOp::kSub:
      return "sub";
    case BinOp::kMul:
      return "mul";
    case BinOp::kDiv:
      return "div";
    case BinOp::kRem:
      return "rem";
    case BinOp::kAnd:
      return "and";
    case BinOp::kOr:
      return "or";
    case BinOp::kXor:
      return "xor";
    case BinOp::kShl:
      return "shl";
    case BinOp::kShr:
      return "shr";
  }
  return "?";
}

std::string CmpPredName(CmpPred pred) {
  switch (pred) {
    case CmpPred::kEq:
      return "eq";
    case CmpPred::kNe:
      return "ne";
    case CmpPred::kLt:
      return "lt";
    case CmpPred::kLe:
      return "le";
    case CmpPred::kGt:
      return "gt";
    case CmpPred::kGe:
      return "ge";
  }
  return "?";
}

std::string ValueToString(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kConst:
      return std::to_string(v.imm);
    case Value::Kind::kArg:
      return "%arg" + std::to_string(v.index);
    case Value::Kind::kInst:
      return "%" + std::to_string(v.index);
  }
  return "?";
}

std::string InstToString(const Instruction& inst) {
  std::ostringstream out;
  if (inst.HasResult()) {
    out << "%" << inst.id << " = ";
  }
  switch (inst.op) {
    case Opcode::kBinOp:
      out << BinOpName(inst.bin_op);
      break;
    case Opcode::kCmp:
      out << "cmp." << CmpPredName(inst.pred);
      break;
    case Opcode::kCall:
      out << "call @" << inst.callee;
      break;
    default:
      out << OpcodeName(inst.op);
      break;
  }
  for (const auto& operand : inst.operands) {
    out << " " << ValueToString(operand);
  }
  if (inst.op == Opcode::kBr) {
    out << " bb" << inst.target;
  } else if (inst.op == Opcode::kCondBr) {
    out << " bb" << inst.target << " bb" << inst.alt_target;
  } else if (inst.op == Opcode::kPhi) {
    for (const auto& in : inst.incomings) {
      out << " [bb" << in.pred << ", " << ValueToString(in.value) << "]";
    }
  }
  switch (inst.origin) {
    case InstOrigin::kOriginal:
      break;
    case InstOrigin::kMetadata:
      out << "  ; meta";
      break;
    case InstOrigin::kCheck:
      out << "  ; check";
      break;
  }
  return out.str();
}

}  // namespace ir
}  // namespace bunshin
