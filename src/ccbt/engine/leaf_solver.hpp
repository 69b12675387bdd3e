#pragma once
// Leaf-edge block solving (Section 5.2, last paragraph): join the tables
// annotating the boundary node, the edge, and the leaf node, then project
// to the boundary.

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

/// Compute the unary projection table of a leaf-edge block, keyed by the
/// image of its boundary node.
template <int B>
ProjTableT<B> solve_leaf_edge(const ExecContext& cx, const Block& blk,
                              TablePoolT<B>& pool) {
  if (blk.kind != BlockKind::kLeafEdge) {
    throw Error("solve_leaf_edge: not a leaf-edge block");
  }
  // Table keyed (π(a)=slot0, π(b)=slot1): the edge itself...
  ExtendOpts no_opts;
  ProjTableT<B> table;
  const int edge_child = blk.edge_child[0];
  if (edge_child < 0) {
    table = init_path_from_graph<B>(cx, no_opts);
  } else {
    // The child's first boundary must be the block's boundary node a; the
    // primitive reads it the other way round (see build_path).
    table = init_path_from_child<B>(
        cx, pool.oriented(edge_child, !blk.edge_child_flip[0]),
        /*flip=*/true, no_opts);
  }
  // ...joined with the leaf node b's annotation...
  if (blk.node_child[1] >= 0) {
    table = node_join<B>(cx, table, pool.get(blk.node_child[1]), /*slot=*/1);
  }
  // ...and the boundary node a's annotation...
  if (blk.node_child[0] >= 0) {
    table = node_join<B>(cx, table, pool.get(blk.node_child[0]), /*slot=*/0);
  }
  // ...then projected onto a.
  return aggregate<B>(cx, table, /*new_arity=*/1);
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
