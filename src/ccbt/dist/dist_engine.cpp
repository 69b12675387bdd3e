#include "ccbt/dist/dist_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/dist/dist_primitives.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/load_model.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

// Path tables are built by dist/dist_primitives.hpp. Merges (fused with
// the minus walk's last extend, or not) and aggregates route their
// outputs through the transport to the owners of their slot-0 images.

using dist::DistPool;
using dist::Dx;
using dist::maybe_alloc_fail;

/// Deliver every rank's rows queued in the transport, add them to the
/// per-rank sinks, sum each sink (DistTable::sum_inboxes, which the budget
/// bounds) and close the phase; `where` names the allocation fault point.
/// Shared by the two ways a split ends and by the aggregate.
void collect_summed(Dx& dx, std::vector<FlatRows>& sinks,
                    const char* where) {
  const ExecContext& cx = dx.cx;
  ScopedStage timed(cx.stage_slot(&StageWall::transport));
  dx.comm.exchange();
  maybe_alloc_fail(dx, where);
  DistTable::sum_inboxes(dx.comm, sinks, dx.budget);
  cx.end_phase();
}

/// The owner of a merge output's slot-0 boundary image (the storage home
/// of block tables); outputs of a root merge (out_arity 0) go to rank 0.
std::uint32_t merge_dest(const Dx& dx, const MergeSpec& spec,
                         const TableKey& key) {
  return spec.out_arity >= 1 ? dx.owner(key.v[0]) : 0;
}

/// Merge the co-located (u, v) groups of the two half-cycle tables end
/// bucket by end bucket, through the same bucket router as the shared
/// engine's merge_halves (both halves are born sorted kByV1, so rank r
/// holds every group whose end v it owns), routing every output to its
/// merge_dest. Adds to the per-rank cycle sinks. Only a split
/// whose minus half is a single edge ends here (d_extend_and_merge ends
/// the others).
void d_merge_halves(Dx& dx, const DistTable& plus, const DistTable& minus,
                    const MergeSpec& spec, std::vector<FlatRows>& sinks) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(plus.shard(r).layout());
      cx.note_lanes(minus.shard(r).layout());
      auto route = [&](const TableKey& key, Count cnt) {
        dx.comm.send(r, merge_dest(dx, spec, key), {key, cnt});
      };
      for (VertexId x = dx.part().begin(r); x < dx.part().end(r); ++x) {
        detail::merge_end_bucket(cx, plus.shard(r), minus.shard(r), x, spec,
                                 route);
      }
    }
  }
  collect_summed(dx, sinks, "merge_halves");
}

/// A split's last minus extend fused with its merge (extend_and_merge):
/// the extend's halo superstep, then each rank runs the fused step over
/// its own block against its plus shard, sums its outputs locally and
/// routes the sums to their merge_dest. The extend's phase closes after
/// every rank has run, then the held merge charges join the merge phase;
/// the fault plan draws at the extend's and the merge's collection points
/// in the unfused order.
void d_extend_and_merge(dist::DistPath& ops, DistTable& prefix,
                        const PathOp& step, DistTable& plus,
                        const MergeSpec& spec, std::vector<FlatRows>& sinks) {
  Dx& dx = ops.dx;
  const ExecContext& cx = dx.cx;
  const DistTable* pull =
      ops.send_extend_halo(prefix, step.child, step.transposed);
  maybe_alloc_fail(dx, "build_shards");
  LoadModel::Held held(cx.load == nullptr ? 0 : cx.load->num_ranks());
  for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
    ProjTable view = ops.halo_view(prefix, r);
    FlatRows local(cx.key_layout());
    held.add(extend_and_merge(cx, view,
                              pull == nullptr ? nullptr : &pull->shard(r),
                              step.opts, plus.shard(r), spec, local,
                              VertexRange::rank(dx.part(), r)));
    ScopedStage timed(cx.stage_slot(&StageWall::transport));
    local.for_each_entry([&](const TableEntry& e) {
      dx.comm.send(r, merge_dest(dx, spec, e.key), e);
    });
  }
  detail::close_build_phase(cx);
  if (cx.load != nullptr) held.apply(*cx.load);
  collect_summed(dx, sinks, "merge_halves");
}

/// One shard per rank, homed at slot 0, from the summed per-rank sinks.
DistTable shards_of(const Dx& dx, int arity, std::vector<FlatRows>& sinks) {
  ScopedStage timed(dx.cx.stage_slot(&StageWall::seal));
  return DistTable::from_sinks(arity, /*home_slot=*/0, sinks,
                               dx.cx.g.num_vertices());
}

/// Route every aggregated row to the owner of its slot-0 image (rank 0
/// for a root aggregate, new_arity 0) and sum it there.
DistTable d_aggregate(Dx& dx, const DistTable& t, int new_arity) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      auto emit = [&](const TableKey& key, Count cnt) {
        const std::uint32_t dest = new_arity >= 1 ? dx.owner(key.v[0]) : 0;
        dx.comm.send(r, dest, {key, cnt});
      };
      t.shard(r).for_each_entry([&](const TableEntry& e) {
        kernel_aggregate(cx, e, new_arity, emit);
      });
    }
  }
  std::vector<FlatRows> sinks(dx.ranks(), FlatRows(dx.cx.key_layout()));
  collect_summed(dx, sinks, "aggregate");
  return shards_of(dx, new_arity, sinks);
}

/// A cycle block through the shared engine's walk schedule
/// (engine/cycle_solver.hpp), each split ending in the per-rank sinks.
/// Raises `peak_entries` to the most entries the block's walk tables and
/// sinks hold at once, summed over the ranks (run_walks).
DistTable d_solve_cycle(Dx& dx, const Block& blk, DistPool& pool,
                        std::size_t& peak_entries) {
  dist::DistPath ops{dx, pool};
  std::vector<FlatRows> sinks(dx.ranks(), FlatRows(dx.cx.key_layout()));
  const std::size_t peak = run_walks(
      ops, schedule_walks(blk, dx.cx.opts.algo), dx.cx.load,
      [&](const WalkSchedule::Split& s, DistTable& plus, DistTable& minus) {
        if (s.fused) {
          d_extend_and_merge(ops, minus, *s.fused, plus, s.merge, sinks);
        } else {
          d_merge_halves(dx, plus, minus, s.merge, sinks);
        }
        std::size_t rows = 0;
        for (const FlatRows& m : sinks) rows += m.size();
        return rows;
      });
  peak_entries = std::max(peak_entries, peak);
  return shards_of(dx, blk.boundary_count(), sinks);
}

DistTable d_solve_leaf_edge(Dx& dx, const Block& blk, DistPool& pool) {
  dist::DistPath ops{dx, pool};
  return d_aggregate(dx, walk_leaf_edge(ops, blk), /*new_arity=*/1);
}

/// One coloring through the plan: the block loop with rollback replay,
/// returning the colorful count. `ckpt` starts as the implicit empty
/// checkpoint (next_block 0, taken at the transport's current superstep):
/// with checkpointing disabled, a replay restarts the coloring. A
/// retryable failure inside block i (the transport exhausted its retries,
/// or an injected allocation failure) rolls the pool back to `ckpt` and
/// resumes from ckpt.next_block; the replayed blocks recompute against
/// fresh fault rolls, and each replay spends one of `replays_left`.
/// Non-retryable errors (BudgetExceeded, malformed plans) propagate
/// unchanged. Raises `peak_entries` as the shared engine's run_coloring
/// does.
Count run_coloring(Dx& dx, const DecompTree& tree, FaultStats& fs,
                   std::uint32_t& replays_left, std::size_t& peak_entries) {
  const ExecContext& cx = dx.cx;
  const DistOptions& opts = cx.opts.dist;
  VirtualComm& comm = dx.comm;
  DistPool pool(tree.blocks.size(), cx.g.num_vertices(), cx.stage);
  CheckpointImage ckpt;
  ckpt.supersteps = comm.stats().supersteps;
  std::size_t i = 0;
  while (i < tree.blocks.size()) {
    try {
      const Block& blk = tree.blocks[i];
      const bool is_root = (static_cast<int>(i) == tree.root);

      if (blk.kind == BlockKind::kSingleton) {
        if (!is_root) {
          throw Error(ErrorCode::kUnsupportedQuery,
                      "run_plan_distributed: singleton below the root");
        }
        // Single-node query: every data vertex is a colorful match.
        if (blk.node_child[0] < 0) return cx.g.num_vertices();
        return comm.allreduce_sum(pool.get(blk.node_child[0]).shard_totals());
      }

      DistTable table = (blk.kind == BlockKind::kLeafEdge)
                            ? d_solve_leaf_edge(dx, blk, pool)
                            : d_solve_cycle(dx, blk, pool, peak_entries);
      if (is_root) {
        peak_entries = std::max(peak_entries, table.size());
        return comm.allreduce_sum(table.shard_totals());
      }
      pool.store(static_cast<int>(i), std::move(table));
      const DistTable& stored = pool.get(static_cast<int>(i));
      peak_entries = std::max(peak_entries, stored.size());
      for (std::uint32_t r = 0; r < stored.num_shards(); ++r) {
        cx.note_lanes(stored.shard(r).layout());
      }
      ++i;
      if (opts.checkpoint_interval > 0 &&
          comm.stats().supersteps - ckpt.supersteps >=
              opts.checkpoint_interval) {
        ckpt = pool.checkpoint(i, comm.stats().supersteps);
        ++fs.checkpoints_taken;
        fs.checkpoint_bytes += ckpt.bytes();
      }
    } catch (const Error& e) {
      if (!e.retryable()) throw;
      if (replays_left == 0) {
        throw Error("run_plan_distributed: replay budget exhausted at block " +
                        std::to_string(i),
                    e);
      }
      --replays_left;
      ++fs.replays;
      fs.replayed_supersteps += comm.stats().supersteps - ckpt.supersteps;
      comm.reset_in_flight();
      pool.restore(ckpt, comm.num_ranks());
      i = ckpt.next_block;
    }
  }
  return 0;
}

}  // namespace

DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const Coloring& chi, std::uint32_t ranks,
                               ExecOptions opts) {
  return run_plan_distributed(g, tree, ColoringBatch(chi), ranks, opts);
}

DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const ColoringBatch& batch,
                               std::uint32_t ranks, ExecOptions opts) {
  check_table_budget(opts, "run_plan_distributed");
  if (tree.root < 0) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "run_plan_distributed: tree has no root");
  }
  Timer timer;
  const DegreeOrder order = opts.order_by_id
                                ? DegreeOrder::by_id(g.num_vertices())
                                : DegreeOrder(g);
  LoadModel load(ranks);
  DistStats stats;
  VirtualComm comm(ranks);
  FaultPlan faults(opts.dist.faults);
  FaultPlan* fp = faults.enabled() ? &faults : nullptr;
  if (fp != nullptr) {
    comm.set_fault_plan(fp, opts.dist.max_retries, opts.dist.backoff_base_ms,
                        opts.dist.deadline_ms);
  }
  // The lanes run one after another through one transport, load model,
  // fault stream and replay budget, so the stats add up over the lanes.
  std::uint32_t replays_left = opts.dist.max_replays;
  stats.lanes_used = batch.lanes();
  for (int l = 0; l < batch.lanes(); ++l) {
    const ExecContext cx{g,
                         batch.lane(l),
                         order,
                         BlockPartition(g.num_vertices(), ranks),
                         &load,
                         opts,
                         &stats.lanes,
                         &stats.stage,
                         &stats.accum};
    Dx dx{cx, comm, opts.max_table_entries, fp};
    stats.colorful_lane[l] = run_coloring(dx, tree, faults.stats(),
                                          replays_left,
                                          stats.peak_table_entries);
  }
  stats.colorful = stats.colorful_lane[0];

  stats.wall_seconds = timer.seconds();
  stats.sim_time = load.sim_time();
  stats.total_ops = load.total_ops();
  stats.max_rank_ops = load.max_rank_ops();
  stats.avg_rank_ops = load.avg_rank_ops();
  stats.total_comm = load.total_comm();
  stats.transport = comm.stats();
  stats.faults = faults.stats();
  return stats;
}

}  // namespace ccbt
