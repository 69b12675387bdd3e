#include "ccbt/engine/executor.hpp"

#include <algorithm>

#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

template <int B>
ExecStats run_plan_impl(const ExecContext& outer_cx, const DecompTree& tree) {
  Timer timer;
  ExecStats stats;
  // Collect lane-occupancy observations through a context copy so
  // callers need no wiring (ExecContext is a bundle of references).
  ExecContext cx = outer_cx;
  cx.lane_telemetry = &stats.lanes;
  cx.stage = &stats.stage;
  cx.accum = &stats.accum;
  stats.lanes_used = cx.chi.lanes();
  TablePoolT<B> pool(tree.blocks.size(), cx.g.num_vertices(), /*unused=*/true,
                     &stats.stage);

  auto record_root = [&](const typename LaneOps<B>::Vec& totals) {
    for (int l = 0; l < B; ++l) {
      stats.colorful_lane[l] = LaneOps<B>::lane(totals, l);
    }
    stats.colorful = stats.colorful_lane[0];
  };

  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    const bool is_root = (static_cast<int>(i) == tree.root);

    if (blk.kind == BlockKind::kSingleton) {
      if (!is_root) throw Error("run_plan: singleton below the root");
      if (blk.node_child[0] >= 0) {
        record_root(pool.get(blk.node_child[0]).lane_totals());
      } else {
        // Single-node query: every data vertex is a colorful match under
        // every coloring.
        for (int l = 0; l < B; ++l) {
          stats.colorful_lane[l] = cx.g.num_vertices();
        }
        stats.colorful = cx.g.num_vertices();
      }
      break;
    }

    ProjTableT<B> table = (blk.kind == BlockKind::kLeafEdge)
                              ? solve_leaf_edge<B>(cx, blk, pool)
                              : solve_cycle<B>(cx, blk, pool);
    stats.peak_table_entries =
        std::max(stats.peak_table_entries, table.size());
    if (is_root) {
      record_root(table.lane_totals());
      break;
    }
    pool.store(static_cast<int>(i), std::move(table));
    cx.note_lanes(pool.get(static_cast<int>(i)).layout());
  }

  stats.wall_seconds = timer.seconds();
  if (cx.load != nullptr) {
    stats.sim_time = cx.load->sim_time();
    stats.total_ops = cx.load->total_ops();
    stats.max_rank_ops = cx.load->max_rank_ops();
    stats.avg_rank_ops = cx.load->avg_rank_ops();
    stats.total_comm = cx.load->total_comm();
  }
  return stats;
}

}  // namespace

ExecStats run_plan(const ExecContext& cx, const DecompTree& tree) {
  check_table_budget(cx.opts, "run_plan");
  if (tree.root < 0) throw Error("run_plan: tree has no root");
  switch (cx.chi.lanes()) {
    case 1: return run_plan_impl<1>(cx, tree);
    case 2: return run_plan_impl<2>(cx, tree);
    case 4: return run_plan_impl<4>(cx, tree);
    case 8: return run_plan_impl<8>(cx, tree);
    default: break;
  }
  throw Error("run_plan: batch width must be 1, 2, 4 or 8");
}

}  // namespace ccbt
