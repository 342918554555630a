// Sanity-check discovery and removal (Bunshin §4.1).
//
// Discovery: a basic block is a check *sink point* when it (1) is a branch
// target, (2) contains a call to a known report handler (name prefixed "__"
// and containing "_report"), and (3) ends with `unreachable`. Metadata
// maintenance involves neither report handlers nor unreachable, so it is
// filtered out by construction.
//
// Removal: for each sink point, find the conditional branch feeding it, then
// recursively backward-trace the instructions that derive the branch
// condition, marking them for deletion. The trace stops at any value that is
// also used elsewhere in the program (an indication it does not belong to the
// sanity check). Finally the branch is rewritten to fall through and the
// now-unreachable sink blocks are deleted.
//
// IMPORTANT: this module never reads Instruction::origin — the tags are
// ground truth used by tests to validate that structural discovery finds
// exactly the instrumentation the sanitizer passes inserted.
#ifndef BUNSHIN_SRC_SLICING_SLICER_H_
#define BUNSHIN_SRC_SLICING_SLICER_H_

#include <vector>

#include "src/ir/ir.h"

namespace bunshin {
namespace slicing {

struct CheckSite {
  ir::BlockId sink = 0;          // the sink block (handler + unreachable)
  ir::BlockId branch_block = 0;  // block whose condbr targets the sink
  ir::InstId branch_inst = 0;    // the condbr instruction id
  ir::BlockId fallthrough = 0;   // where control goes when the check passes
  std::vector<ir::InstId> sliced_insts;  // condition-derivation instructions
};

// Structurally discovers all check sites in `fn`, including the backward
// slice for each. Does not modify the function.
std::vector<CheckSite> DiscoverChecks(const ir::Function& fn);

struct RemovalStats {
  size_t checks_removed = 0;
  size_t instructions_removed = 0;
  size_t blocks_removed = 0;
};

// Removes every discovered check from `fn` ("de-instrumentation"): deletes
// the sliced condition instructions, rewrites the guarding condbr into an
// unconditional branch to the fallthrough, and erases unreachable blocks.
RemovalStats RemoveChecks(ir::Function* fn);

// Erases blocks not reachable from the entry (renumbering block ids and
// fixing all branch targets and phi predecessors). Exposed for testing.
size_t RemoveUnreachableBlocks(ir::Function* fn);

}  // namespace slicing
}  // namespace bunshin

#endif  // BUNSHIN_SRC_SLICING_SLICER_H_
