// A miniature SSA-style intermediate representation.
//
// This is the compiler substrate the paper's variant generator operates on
// (standing in for LLVM IR). It is deliberately small but structurally honest:
// sanitizer passes insert metadata-maintenance instructions and sanity-check
// branches into it exactly in the shape Bunshin §4.1 describes (a check is a
// compare feeding a conditional branch whose taken side is a "sink" block that
// calls a report handler and ends in `unreachable`), and the check-removal
// slicer then rediscovers and deletes them using only structural information.
//
// Values are i64. Memory is flat and byte-is-word addressable (one address
// holds one i64), which is all the sanitizer models need.
#ifndef BUNSHIN_SRC_IR_IR_H_
#define BUNSHIN_SRC_IR_IR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace bunshin {
namespace ir {

enum class Opcode {
  kConst,
  kBinOp,
  kCmp,
  kSelect,
  kAlloca,
  kLoad,
  kStore,
  kCall,
  kBr,
  kCondBr,
  kPhi,
  kRet,
  kUnreachable,
};

enum class BinOp { kAdd, kSub, kMul, kDiv, kRem, kAnd, kOr, kXor, kShl, kShr };

enum class CmpPred { kEq, kNe, kLt, kLe, kGt, kGe };

// Where an instruction came from. The baseline program has kOriginal only;
// sanitizer passes tag what they insert. This tag is *ground truth for tests
// and for the paper's discovery-step evaluation* — the slicing pass itself is
// forbidden from reading it (it must rediscover checks structurally).
enum class InstOrigin { kOriginal, kMetadata, kCheck };

// Operand: a constant, a function argument, or the result of an instruction
// (identified by its function-unique id).
struct Value {
  enum class Kind { kConst, kArg, kInst };
  Kind kind = Kind::kConst;
  int64_t imm = 0;    // kConst
  uint32_t index = 0;  // kArg: argument index; kInst: instruction id

  static Value Const(int64_t v) { return {Kind::kConst, v, 0}; }
  static Value Arg(uint32_t i) { return {Kind::kArg, 0, i}; }
  static Value Inst(uint32_t id) { return {Kind::kInst, 0, id}; }

  bool operator==(const Value& other) const {
    return kind == other.kind && imm == other.imm && index == other.index;
  }
};

using BlockId = uint32_t;
using InstId = uint32_t;

struct PhiIncoming {
  BlockId pred;
  Value value;
};

struct Instruction {
  InstId id = 0;
  Opcode op = Opcode::kUnreachable;
  InstOrigin origin = InstOrigin::kOriginal;

  BinOp bin_op = BinOp::kAdd;    // kBinOp
  CmpPred pred = CmpPred::kEq;   // kCmp
  std::vector<Value> operands;   // generic operands (see per-opcode layout below)
  std::string callee;            // kCall
  BlockId target = 0;            // kBr; kCondBr true-target
  BlockId alt_target = 0;        // kCondBr false-target
  std::vector<PhiIncoming> incomings;  // kPhi

  // Operand layout:
  //   kConst:   operands[0] is the constant (kind kConst)
  //   kBinOp:   operands[0], operands[1]
  //   kCmp:     operands[0], operands[1]
  //   kSelect:  operands[0]=cond, operands[1]=true val, operands[2]=false val
  //   kAlloca:  operands[0]=element count
  //   kLoad:    operands[0]=address
  //   kStore:   operands[0]=address, operands[1]=value (no result)
  //   kCall:    operands = call arguments
  //   kCondBr:  operands[0]=condition
  //   kRet:     operands[0]=return value (optional; may be empty)

  bool IsTerminator() const {
    return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kRet ||
           op == Opcode::kUnreachable;
  }
  bool HasResult() const {
    return op != Opcode::kStore && op != Opcode::kBr && op != Opcode::kCondBr &&
           op != Opcode::kRet && op != Opcode::kUnreachable;
  }
};

struct BasicBlock {
  BlockId id = 0;
  std::string label;
  std::vector<Instruction> insts;

  const Instruction* Terminator() const {
    if (insts.empty() || !insts.back().IsTerminator()) {
      return nullptr;
    }
    return &insts.back();
  }
  // Successor block ids derived from the terminator (empty for ret/unreachable).
  std::vector<BlockId> Successors() const;
};

class Function {
 public:
  Function(std::string name, uint32_t num_args) : name_(std::move(name)), num_args_(num_args) {}

  const std::string& name() const { return name_; }
  uint32_t num_args() const { return num_args_; }

  BlockId AddBlock(std::string label);
  BasicBlock* block(BlockId id);
  const BasicBlock* block(BlockId id) const;
  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  std::vector<BasicBlock>& mutable_blocks() { return blocks_; }
  BlockId entry() const { return 0; }

  // Allocates a fresh instruction id (function-unique).
  InstId NextInstId() { return next_inst_id_++; }
  uint32_t next_inst_id_value() const { return next_inst_id_; }

  // Finds the (block, index) of an instruction id; returns false if absent.
  bool Locate(InstId id, BlockId* block_out, size_t* index_out) const;

 private:
  std::string name_;
  uint32_t num_args_;
  std::vector<BasicBlock> blocks_;
  InstId next_inst_id_ = 0;
};

class Module {
 public:
  // Adds a function; name must be unique.
  Function* AddFunction(std::string name, uint32_t num_args);
  const Function* GetFunction(const std::string& name) const;
  const std::vector<std::unique_ptr<Function>>& functions() const { return functions_; }

  // Deep copy (functions are value-copied).
  std::unique_ptr<Module> Clone() const;

 private:
  std::vector<std::unique_ptr<Function>> functions_;
  std::map<std::string, Function*> by_name_;
};

// Pretty printers.
std::string OpcodeName(Opcode op);
std::string BinOpName(BinOp op);
std::string CmpPredName(CmpPred pred);
std::string ValueToString(const Value& v);
std::string InstToString(const Instruction& inst);

}  // namespace ir
}  // namespace bunshin

#endif  // BUNSHIN_SRC_IR_IR_H_
