#pragma once
// Leaf-edge block solving (Section 5.2, last paragraph): join the tables
// annotating the boundary node, the edge, and the leaf node, then project
// to the boundary.

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/path_builder.hpp"

namespace ccbt {

/// Compute the unary projection table of a leaf-edge block, keyed by the
/// image of its boundary node.
template <int B>
ProjTableT<B> solve_leaf_edge(const ExecContext& cx, const Block& blk,
                              TablePoolT<B>& pool) {
  SharedPath<B> ops{cx, pool};
  return aggregate<B>(cx, walk_leaf_edge(ops, blk), /*new_arity=*/1);
}

extern template ProjTableT<1> solve_leaf_edge<1>(const ExecContext&,
                                                 const Block&,
                                                 TablePoolT<1>&);
extern template ProjTableT<2> solve_leaf_edge<2>(const ExecContext&,
                                                 const Block&,
                                                 TablePoolT<2>&);
extern template ProjTableT<4> solve_leaf_edge<4>(const ExecContext&,
                                                 const Block&,
                                                 TablePoolT<4>&);
extern template ProjTableT<8> solve_leaf_edge<8>(const ExecContext&,
                                                 const Block&,
                                                 TablePoolT<8>&);

}  // namespace ccbt
