#include "ccbt/engine/cycle_solver.hpp"

namespace ccbt {

template <int B>
ProjTableT<B> solve_cycle(const ExecContext& cx, const Block& blk,
                          TablePoolT<B>& pool) {
  AccumMap sink(16, cx.opts.compact_accum);
  SharedPath<1> ops{cx, pool};
  for (const SplitPlan& plan : splits_for(blk, cx.opts.algo)) {
    ProjTable plus = walk_path(ops, blk, plan.plus);
    PathStep last;
    ProjTable minus = walk_path(ops, blk, plan.minus, &last);
    if (!last.pending) {
      merge_halves<1>(cx, plus, minus, plan.merge, sink);
      continue;
    }
    // The pulling orientation, as SharedPath::extend_child reads it.
    const ProjTable* child =
        last.child < 0 ? nullptr : &pool.oriented(last.child, !last.transposed);
    (void)extend_and_merge(cx, minus, child, last.opts, plus, plan.merge, sink);
  }
  // The merge spec emitted exactly the boundary slots, so the accumulated
  // keys already project to the block's boundary images.
  return ProjTable::from_map(blk.boundary_count(), std::move(sink));
}

template ProjTableT<1> solve_cycle<1>(const ExecContext&, const Block&,
                                      TablePoolT<1>&);

}  // namespace ccbt
