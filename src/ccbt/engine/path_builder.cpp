#include "ccbt/engine/path_builder.hpp"

namespace ccbt {

bool needs_transpose(const Block& blk, int edge, bool forward) {
  return forward ? blk.edge_child_flip[edge] : !blk.edge_child_flip[edge];
}

PathOps walk_path(const Block& blk, const PathSpec& spec) {
  using Kind = PathOp::Kind;
  const std::size_t steps = spec.positions.size();
  if (steps < 2) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "build_path: path needs at least one edge");
  }
  PathOps ops;
  // The walk's s-th edge: the init for the first, an extend after it.
  const auto edge = [&](std::size_t s) {
    const int e = spec.edge_index[s];
    const int child = blk.edge_child[e];
    const bool first = s == 0;
    const Kind kind =
        child < 0 ? (first ? Kind::kInitGraph : Kind::kExtendGraph)
                  : (first ? Kind::kInitChild : Kind::kExtendChild);
    const bool transposed =
        child >= 0 && needs_transpose(blk, e, spec.edge_forward[s]);
    ops.push_back({kind, child, transposed, 0,
                   ExtendOpts{spec.track_slot_at[s + 1], spec.anchor_higher}});
  };
  // NodeJoin with the annotation of the walk's position `pos`, if any.
  const auto join = [&](std::size_t pos, int slot) {
    const int node = blk.node_child[spec.positions[pos]];
    if (node >= 0) ops.push_back({Kind::kNodeJoin, node, false, slot, {}});
  };
  edge(0);
  if (spec.include_start_annot) join(0, /*slot=*/0);
  for (std::size_t s = 1; s + 1 < steps; ++s) {
    join(s, /*slot=*/1);
    edge(s);
  }
  if (spec.include_end_annot) join(steps - 1, /*slot=*/1);
  return ops;
}

template ProjTableT<1> build_path<1>(const ExecContext&, const Block&,
                                     TablePoolT<1>&, const PathSpec&);
template ProjTableT<2> build_path<2>(const ExecContext&, const Block&,
                                     TablePoolT<2>&, const PathSpec&);
template ProjTableT<4> build_path<4>(const ExecContext&, const Block&,
                                     TablePoolT<4>&, const PathSpec&);
template ProjTableT<8> build_path<8>(const ExecContext&, const Block&,
                                     TablePoolT<8>&, const PathSpec&);

}  // namespace ccbt
