#include "ccbt/engine/leaf_solver.hpp"

namespace ccbt {

ProjTable solve_leaf_edge(const ExecContext& cx, const Block& blk,
                          TablePool& pool) {
  SharedPath ops{cx, pool};
  return aggregate(cx, walk_leaf_edge(ops, blk), /*new_arity=*/1);
}

}  // namespace ccbt
