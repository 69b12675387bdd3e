#pragma once
// Leaf-edge block solving (Section 5.2, last paragraph): join the tables
// annotating the boundary node, the edge, and the leaf node, then project
// to the boundary.

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/path_builder.hpp"

namespace ccbt {

/// Compute the unary projection table of a leaf-edge block, keyed by the
/// image of its boundary node.
ProjTable solve_leaf_edge(const ExecContext& cx, const Block& blk,
                          TablePool& pool);

}  // namespace ccbt
