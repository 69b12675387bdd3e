#include "ccbt/dist/dist_engine.hpp"

#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/dist/dist_primitives.hpp"
#include "ccbt/engine/load_model.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

// Path tables are built by dist/dist_primitives.hpp. Merges and
// aggregates route their outputs through the transport to the owners of
// their slot-0 images.

using dist::DistPool;
using dist::Dx;
using dist::maybe_alloc_fail;

/// Merge the co-located (u, v) groups of the two half-cycle tables end
/// bucket by end bucket, through the same bucket router as the shared
/// engine's merge_halves (both halves are born sorted kByV1, so rank r
/// holds every group whose end v it owns), routing every output to the
/// owner of its slot-0 boundary image (the storage home of block tables);
/// outputs of a root merge (out_arity 0) collapse to rank 0. Accumulates
/// into the per-rank cycle sinks.
template <int B>
void d_merge_halves(Dx<B>& dx, const DistTableT<B>& plus,
                    const DistTableT<B>& minus, const MergeSpec& spec,
                    std::vector<AccumMapT<B>>& sinks) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));
    std::vector<TableEntryT<B>> pscratch, mscratch;
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(plus.shard(r).layout());
      cx.note_lanes(minus.shard(r).layout());
      auto route = [&](const TableKey& key,
                       const typename LaneOps<B>::Vec& cnt) {
        const std::uint32_t dest =
            spec.out_arity >= 1 ? dx.owner(key.v[0]) : 0;
        dx.comm.send(r, dest, {key, cnt});
      };
      for (VertexId x = dx.part().begin(r); x < dx.part().end(r); ++x) {
        detail::merge_end_bucket<B>(cx, plus.shard(r), minus.shard(r), x,
                                    spec, route, pscratch, mscratch);
      }
    }
  }
  ScopedStage timed(cx.stage_slot(&StageWall::transport));
  dx.comm.exchange();
  maybe_alloc_fail(dx, "merge_halves");
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
    for (const TableEntryT<B>& e : dx.comm.inbox(r)) {
      sinks[r].add(e.key, e.cnt);
    }
    total += sinks[r].size();
  }
  if (total > dx.budget) {
    throw BudgetExceeded("projection table exceeded " +
                         std::to_string(dx.budget) + " entries");
  }
  cx.end_phase();
}

template <int B>
DistTableT<B> d_aggregate(Dx<B>& dx, const DistTableT<B>& t,
                          int new_arity) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      auto emit = [&](const TableKey& key,
                      const typename LaneOps<B>::Vec& cnt) {
        const std::uint32_t dest = new_arity >= 1 ? dx.owner(key.v[0]) : 0;
        dx.comm.send(r, dest, {key, cnt});
      };
      t.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_aggregate<B>(cx, e, new_arity, emit);
      });
    }
  }
  ScopedStage timed(cx.stage_slot(&StageWall::transport));
  dx.comm.exchange();
  maybe_alloc_fail(dx, "aggregate");
  DistTableT<B> out =
      DistTableT<B>::collect(new_arity, /*home_slot=*/0, dx.comm,
                             SortOrder::kUnsorted, dx.budget);
  cx.end_phase();
  return out;
}

template <int B>
DistTableT<B> d_solve_cycle(Dx<B>& dx, const Block& blk, DistPool<B>& pool) {
  dist::DistPath<B> ops{dx, pool};
  std::vector<AccumMapT<B>> sinks(dx.ranks());
  for (const SplitPlan& plan : splits_for(blk, dx.cx.opts.algo)) {
    DistTableT<B> plus = walk_path(ops, blk, plan.plus);
    DistTableT<B> minus = walk_path(ops, blk, plan.minus);
    d_merge_halves(dx, plus, minus, plan.merge, sinks);
  }
  std::vector<ProjTableT<B>> shards;
  for (AccumMapT<B>& m : sinks) {
    shards.push_back(
        ProjTableT<B>::from_map(blk.boundary_count(), std::move(m)));
  }
  return DistTableT<B>::from_shards(blk.boundary_count(), /*home_slot=*/0,
                                    std::move(shards));
}

template <int B>
DistTableT<B> d_solve_leaf_edge(Dx<B>& dx, const Block& blk,
                                DistPool<B>& pool) {
  dist::DistPath<B> ops{dx, pool};
  return d_aggregate(dx, walk_leaf_edge(ops, blk), /*new_arity=*/1);
}

template <int B>
DistStats run_plan_distributed_impl(const CsrGraph& g, const DecompTree& tree,
                                    const ColoringBatch& batch,
                                    std::uint32_t ranks, ExecOptions opts) {
  Timer timer;
  const DegreeOrder order = opts.order_by_id
                                ? DegreeOrder::by_id(g.num_vertices())
                                : DegreeOrder(g);
  LoadModel load(ranks);
  DistStats stats;
  const ExecContext cx{g,
                       batch,
                       order,
                       BlockPartition(g.num_vertices(), ranks),
                       &load,
                       opts,
                       &stats.lanes,
                       &stats.stage,
                       &stats.accum};
  VirtualCommT<B> comm(ranks);
  FaultPlan faults(opts.dist.faults);
  FaultPlan* fp = faults.enabled() ? &faults : nullptr;
  if (fp != nullptr) {
    comm.set_fault_plan(fp, opts.dist.max_retries, opts.dist.backoff_base_ms,
                        opts.dist.deadline_ms);
  }
  Dx<B> dx{cx, comm, opts.max_table_entries, fp};
  DistPool<B> pool(tree.blocks.size(), g.num_vertices(), &stats.stage);

  stats.lanes_used = batch.lanes();
  auto record_root = [&](const typename LaneOps<B>::Vec& totals) {
    for (int l = 0; l < B; ++l) {
      stats.colorful_lane[l] = LaneOps<B>::lane(totals, l);
    }
    stats.colorful = stats.colorful_lane[0];
  };

  // Block loop with rollback replay. `ckpt` starts as the implicit empty
  // checkpoint (next_block 0): with checkpointing disabled, a replay
  // restarts the whole run. A retryable failure inside block i (the
  // transport exhausted its retries, or an injected allocation failure)
  // rolls the pool back to `ckpt` and resumes from ckpt.next_block; the
  // replayed blocks recompute against fresh fault rolls. Non-retryable
  // errors (BudgetExceeded, malformed plans) propagate unchanged.
  CheckpointImageT<B> ckpt;
  std::uint32_t replays_left = opts.dist.max_replays;
  std::size_t i = 0;
  bool done = false;
  while (!done && i < tree.blocks.size()) {
    try {
      const Block& blk = tree.blocks[i];
      const bool is_root = (static_cast<int>(i) == tree.root);

      if (blk.kind == BlockKind::kSingleton) {
        if (!is_root) {
          throw Error(ErrorCode::kUnsupportedQuery,
                      "run_plan_distributed: singleton below the root");
        }
        if (blk.node_child[0] >= 0) {
          record_root(comm.allreduce_sum_lanes(
              pool.get(blk.node_child[0]).shard_lane_totals()));
        } else {
          // Single-node query: every data vertex is a colorful match
          // under every coloring.
          for (int l = 0; l < B; ++l) {
            stats.colorful_lane[l] = g.num_vertices();
          }
          stats.colorful = g.num_vertices();
        }
        done = true;
        continue;
      }

      DistTableT<B> table = (blk.kind == BlockKind::kLeafEdge)
                                ? d_solve_leaf_edge(dx, blk, pool)
                                : d_solve_cycle(dx, blk, pool);
      if (is_root) {
        record_root(comm.allreduce_sum_lanes(table.shard_lane_totals()));
        done = true;
        continue;
      }
      pool.store(static_cast<int>(i), std::move(table));
      const DistTableT<B>& stored = pool.get(static_cast<int>(i));
      for (std::uint32_t r = 0; r < stored.num_shards(); ++r) {
        cx.note_lanes(stored.shard(r).layout());
      }
      ++i;
      if (opts.dist.checkpoint_interval > 0 &&
          comm.stats().supersteps - ckpt.supersteps >=
              opts.dist.checkpoint_interval) {
        ckpt = pool.checkpoint(i, comm.stats().supersteps);
        FaultStats& fs = faults.stats();
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
      FaultStats& fs = faults.stats();
      ++fs.replays;
      fs.replayed_supersteps += comm.stats().supersteps - ckpt.supersteps;
      comm.reset_in_flight();
      pool.restore(ckpt, ranks);
      i = ckpt.next_block;
    }
  }

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
  switch (batch.lanes()) {
    case 1: return run_plan_distributed_impl<1>(g, tree, batch, ranks, opts);
    case 2: return run_plan_distributed_impl<2>(g, tree, batch, ranks, opts);
    case 4: return run_plan_distributed_impl<4>(g, tree, batch, ranks, opts);
    case 8: return run_plan_distributed_impl<8>(g, tree, batch, ranks, opts);
    default: break;
  }
  throw Error(ErrorCode::kUnsupportedQuery,
              "run_plan_distributed: batch width must be 1, 2, 4 or 8");
}

}  // namespace ccbt
