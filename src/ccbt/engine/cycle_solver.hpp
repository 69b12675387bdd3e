#pragma once
// Cycle-block solving (Section 5): PS, PS-EVEN and DB strategies.

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/split_plan.hpp"

namespace ccbt {

/// Compute the projection table of a (possibly annotated) cycle block.
/// Output arity equals the block's boundary count; keys are ordered
/// (nodes[boundary_pos[0]], nodes[boundary_pos[1]]). Each split builds its
/// plus half, walks its minus half one extend short and fuses that extend
/// with the merge (extend_and_merge); a split whose minus half is a single
/// edge merges the two tables (merge_halves). Defined for B = 1, the
/// width the engine runs every coloring at.
template <int B>
ProjTableT<B> solve_cycle(const ExecContext& cx, const Block& blk,
                          TablePoolT<B>& pool);

extern template ProjTableT<1> solve_cycle<1>(const ExecContext&, const Block&,
                                             TablePoolT<1>&);

}  // namespace ccbt
