#include "src/slicing/slicer.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/ir/interp.h"  // for IsReportHandler

namespace bunshin {
namespace slicing {
namespace {

// True when `bb` matches the three structural sink-point properties.
bool IsSinkBlock(const ir::Function& fn, const ir::BasicBlock& bb) {
  // (3) ends with unreachable.
  const ir::Instruction* term = bb.Terminator();
  if (term == nullptr || term->op != ir::Opcode::kUnreachable) {
    return false;
  }
  // (2) contains a report handler call.
  bool has_handler = false;
  for (const auto& inst : bb.insts) {
    if (inst.op == ir::Opcode::kCall && ir::IsReportHandler(inst.callee)) {
      has_handler = true;
      break;
    }
  }
  if (!has_handler) {
    return false;
  }
  // (1) is a branch target.
  for (const auto& pred : fn.blocks()) {
    for (ir::BlockId succ : pred.Successors()) {
      if (succ == bb.id) {
        return true;
      }
    }
  }
  return false;
}

// Map from instruction id to the ids of instructions that use it.
std::map<ir::InstId, std::set<ir::InstId>> BuildUseMap(const ir::Function& fn) {
  std::map<ir::InstId, std::set<ir::InstId>> uses;
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb.insts) {
      for (const auto& operand : inst.operands) {
        if (operand.kind == ir::Value::Kind::kInst) {
          uses[operand.index].insert(inst.id);
        }
      }
      for (const auto& incoming : inst.incomings) {
        if (incoming.value.kind == ir::Value::Kind::kInst) {
          uses[incoming.value.index].insert(inst.id);
        }
      }
    }
  }
  return uses;
}

const ir::Instruction* FindInst(const ir::Function& fn, ir::InstId id) {
  ir::BlockId block = 0;
  size_t index = 0;
  if (!fn.Locate(id, &block, &index)) {
    return nullptr;
  }
  return &fn.block(block)->insts[index];
}

// Recursive backward trace from the branch condition: an instruction joins
// the slice iff every one of its uses is already inside the slice (the
// guarding condbr counts as inside). A value used elsewhere in the program
// does not belong to the sanity check and terminates the trace.
std::vector<ir::InstId> BackwardSlice(const ir::Function& fn,
                                      const std::map<ir::InstId, std::set<ir::InstId>>& uses,
                                      ir::InstId condbr_id, const ir::Value& cond) {
  std::set<ir::InstId> marked;  // instructions in the slice
  marked.insert(condbr_id);     // seed: the branch itself will be rewritten

  auto all_uses_marked = [&](ir::InstId def) {
    auto it = uses.find(def);
    if (it == uses.end()) {
      return true;  // no uses at all (defensive; cannot happen for cond)
    }
    return std::all_of(it->second.begin(), it->second.end(),
                       [&](ir::InstId user) { return marked.count(user) > 0; });
  };

  std::vector<ir::InstId> worklist;
  if (cond.kind == ir::Value::Kind::kInst) {
    worklist.push_back(cond.index);
  }
  while (!worklist.empty()) {
    const ir::InstId id = worklist.back();
    worklist.pop_back();
    if (marked.count(id) > 0) {
      continue;
    }
    if (!all_uses_marked(id)) {
      continue;  // shared with the program — stop the trace here
    }
    const ir::Instruction* inst = FindInst(fn, id);
    if (inst == nullptr) {
      continue;
    }
    // Never slice through instructions with side effects on program state:
    // stores and calls may be metadata maintenance (e.g. shadow poisoning)
    // that other checks or the sanitizer runtime rely on. Loads are pure in
    // this IR and may be sliced (e.g. the shadow load of an ASan check).
    if (inst->op == ir::Opcode::kStore || inst->op == ir::Opcode::kCall ||
        inst->op == ir::Opcode::kAlloca) {
      continue;
    }
    marked.insert(id);
    for (const auto& operand : inst->operands) {
      if (operand.kind == ir::Value::Kind::kInst) {
        worklist.push_back(operand.index);
      }
    }
    for (const auto& incoming : inst->incomings) {
      if (incoming.value.kind == ir::Value::Kind::kInst) {
        worklist.push_back(incoming.value.index);
      }
    }
  }

  marked.erase(condbr_id);  // reported separately as branch_inst
  return {marked.begin(), marked.end()};
}

}  // namespace

std::vector<CheckSite> DiscoverChecks(const ir::Function& fn) {
  std::vector<CheckSite> sites;
  const auto uses = BuildUseMap(fn);

  std::set<ir::BlockId> sinks;
  for (const auto& bb : fn.blocks()) {
    if (IsSinkBlock(fn, bb)) {
      sinks.insert(bb.id);
    }
  }
  if (sinks.empty()) {
    return sites;
  }

  for (const auto& bb : fn.blocks()) {
    const ir::Instruction* term = bb.Terminator();
    if (term == nullptr || term->op != ir::Opcode::kCondBr) {
      continue;
    }
    const bool true_is_sink = sinks.count(term->target) > 0;
    const bool false_is_sink = sinks.count(term->alt_target) > 0;
    if (!true_is_sink && !false_is_sink) {
      continue;
    }
    CheckSite site;
    site.sink = true_is_sink ? term->target : term->alt_target;
    site.branch_block = bb.id;
    site.branch_inst = term->id;
    site.fallthrough = true_is_sink ? term->alt_target : term->target;
    site.sliced_insts = BackwardSlice(fn, uses, term->id, term->operands[0]);
    sites.push_back(std::move(site));
  }
  return sites;
}

size_t RemoveUnreachableBlocks(ir::Function* fn) {
  // BFS from entry.
  std::set<ir::BlockId> reachable;
  std::vector<ir::BlockId> queue = {fn->entry()};
  while (!queue.empty()) {
    const ir::BlockId id = queue.back();
    queue.pop_back();
    if (!reachable.insert(id).second) {
      continue;
    }
    const ir::BasicBlock* bb = fn->block(id);
    if (bb == nullptr) {
      continue;
    }
    for (ir::BlockId succ : bb->Successors()) {
      queue.push_back(succ);
    }
  }

  if (reachable.size() == fn->blocks().size()) {
    return 0;
  }

  // Compact: old id -> new id.
  std::map<ir::BlockId, ir::BlockId> remap;
  std::vector<ir::BasicBlock> kept;
  for (auto& bb : fn->mutable_blocks()) {
    if (reachable.count(bb.id) > 0) {
      remap[bb.id] = static_cast<ir::BlockId>(kept.size());
      kept.push_back(std::move(bb));
    }
  }
  const size_t removed = fn->blocks().size() - kept.size();

  for (auto& bb : kept) {
    bb.id = remap[bb.id];
    for (auto& inst : bb.insts) {
      if (inst.op == ir::Opcode::kBr || inst.op == ir::Opcode::kCondBr) {
        inst.target = remap[inst.target];
        if (inst.op == ir::Opcode::kCondBr) {
          inst.alt_target = remap[inst.alt_target];
        }
      }
      if (inst.op == ir::Opcode::kPhi) {
        // Drop incomings from removed predecessors; remap the rest.
        std::vector<ir::PhiIncoming> alive;
        for (auto& incoming : inst.incomings) {
          auto it = remap.find(incoming.pred);
          if (it != remap.end()) {
            incoming.pred = it->second;
            alive.push_back(incoming);
          }
        }
        inst.incomings = std::move(alive);
      }
    }
  }
  fn->mutable_blocks() = std::move(kept);
  return removed;
}

RemovalStats RemoveChecks(ir::Function* fn) {
  RemovalStats stats;
  const std::vector<CheckSite> sites = DiscoverChecks(*fn);
  if (sites.empty()) {
    return stats;
  }

  std::set<ir::InstId> to_delete;
  for (const auto& site : sites) {
    ++stats.checks_removed;
    to_delete.insert(site.sliced_insts.begin(), site.sliced_insts.end());

    // Rewrite the guarding condbr into an unconditional fallthrough branch.
    ir::BlockId block = 0;
    size_t index = 0;
    if (fn->Locate(site.branch_inst, &block, &index)) {
      ir::Instruction& term = fn->block(block)->insts[index];
      term.op = ir::Opcode::kBr;
      term.target = site.fallthrough;
      term.alt_target = 0;
      term.operands.clear();
      term.origin = ir::InstOrigin::kOriginal;
    }
  }

  // Physically delete the sliced instructions.
  for (auto& bb : fn->mutable_blocks()) {
    auto new_end = std::remove_if(bb.insts.begin(), bb.insts.end(), [&](const ir::Instruction& i) {
      return to_delete.count(i.id) > 0;
    });
    stats.instructions_removed += static_cast<size_t>(bb.insts.end() - new_end);
    bb.insts.erase(new_end, bb.insts.end());
  }

  // Sink blocks lost their only predecessors; sweep them (this also counts
  // their handler call + unreachable instructions as removed).
  for (const auto& site : sites) {
    const ir::BasicBlock* sink = fn->block(site.sink);
    if (sink != nullptr) {
      stats.instructions_removed += sink->insts.size();
    }
  }
  stats.blocks_removed = RemoveUnreachableBlocks(fn);
  return stats;
}

}  // namespace slicing
}  // namespace bunshin
