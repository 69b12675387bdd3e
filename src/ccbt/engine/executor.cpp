#include "ccbt/engine/executor.hpp"

#include <algorithm>

#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

/// One coloring (cx.chi holds one lane) through the plan's blocks,
/// bottom up; returns its colorful count and raises `peak_entries` to
/// the most entries one block's solve held at once.
Count run_coloring(const ExecContext& cx, const DecompTree& tree,
                   std::size_t& peak_entries) {
  TablePool pool(tree.blocks.size(), cx.g.num_vertices(), cx.stage);
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    const bool is_root = (static_cast<int>(i) == tree.root);

    if (blk.kind == BlockKind::kSingleton) {
      if (!is_root) throw Error("run_plan: singleton below the root");
      // Single-node query: every data vertex is a colorful match.
      if (blk.node_child[0] < 0) return cx.g.num_vertices();
      return pool.get(blk.node_child[0]).total();
    }

    ProjTable table = (blk.kind == BlockKind::kLeafEdge)
                          ? solve_leaf_edge(cx, blk, pool)
                          : solve_cycle(cx, blk, pool, &peak_entries);
    peak_entries = std::max(peak_entries, table.size());
    if (is_root) return table.total();
    pool.store(static_cast<int>(i), std::move(table));
    cx.note_lanes(pool.get(static_cast<int>(i)).layout());
  }
  return 0;
}

}  // namespace

ExecStats run_plan(const ExecContext& outer_cx, const DecompTree& tree) {
  check_table_budget(outer_cx.opts, "run_plan");
  if (tree.root < 0) throw Error("run_plan: tree has no root");
  Timer timer;
  ExecStats stats;
  // Collect the telemetry through a context copy so callers need no
  // wiring (ExecContext is a bundle of references). The lanes run one
  // after another and share it, and the caller's load model.
  ExecContext cx = outer_cx;
  cx.lane_telemetry = &stats.lanes;
  cx.stage = &stats.stage;
  cx.accum = &stats.accum;
  stats.lanes_used = outer_cx.chi.lanes();
  for (int l = 0; l < stats.lanes_used; ++l) {
    if (stats.lanes_used > 1) cx.chi = ColoringBatch(outer_cx.chi.lane(l));
    stats.colorful_lane[l] = run_coloring(cx, tree, stats.peak_table_entries);
  }
  stats.colorful = stats.colorful_lane[0];

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

}  // namespace ccbt
