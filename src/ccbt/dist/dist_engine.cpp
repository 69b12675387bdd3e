#include "ccbt/dist/dist_engine.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/engine/load_model.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/table/signature.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

// The per-entry join logic lives in the kernels of engine/primitives.hpp,
// shared verbatim with the shared-memory engine — that sharing is what
// guarantees exact load-model parity at every batch width. This file only
// routes kernel emissions through the transport.

/// Distributed execution state threaded through every primitive: the
/// shared-memory ExecContext (whose LoadModel the primitives charge
/// exactly as the shared engine does) plus the transport.
template <int B>
struct Dx {
  const ExecContext& cx;
  VirtualCommT<B>& comm;
  std::size_t budget;
  VertexId domain;  // data-graph vertex count (bucket-index domain)
  FaultPlan* faults = nullptr;  // nullptr = no injection

  const BlockPartition& part() const { return cx.part; }
  std::uint32_t ranks() const { return comm.num_ranks(); }
  std::uint32_t owner(VertexId v) const { return cx.part.owner(v); }

  /// Kernel emission routed to the owner of the key's `home` slot vertex.
  auto route_to_slot(std::uint32_t from, int home) {
    return [this, from, home](const TableKey& key,
                              const typename LaneOps<B>::Vec& cnt) {
      comm.send(from, owner(key.v[home]), {key, cnt});
    };
  }
};

/// Deterministically injected allocation failure at a table-materialize
/// point. Retryable: the replay layer rolls back to the last checkpoint
/// (the fault stream has advanced, so the replayed attempt rolls fresh
/// decisions and can succeed).
template <int B>
void maybe_alloc_fail(Dx<B>& dx, const char* where) {
  if (dx.faults != nullptr && dx.faults->alloc_fails()) {
    throw Error(ErrorCode::kAllocFailed,
                std::string(where) + ": injected allocation failure");
  }
}

/// Deliver the queued emissions and collect them into a path table:
/// entry (.., v, ..) lives with owner(v) (home slot 1, Section 7).
template <int B>
DistTableT<B> collect_path(Dx<B>& dx, int arity) {
  ScopedStage timed(dx.cx.stage_slot(&StageWall::transport));
  dx.comm.exchange();
  maybe_alloc_fail(dx, "collect_path");
  return DistTableT<B>::collect(arity, /*home_slot=*/1, dx.comm,
                                SortOrder::kUnsorted, dx.budget, dx.domain);
}

template <int B>
DistTableT<B> d_init_path_from_graph(Dx<B>& dx, const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      auto emit = dx.route_to_slot(r, 1);
      for (VertexId u = dx.part().begin(r); u < dx.part().end(r); ++u) {
        kernel_init_from_graph<B>(cx, u, o, emit);
      }
    }
  }
  DistTableT<B> t = collect_path(dx, 2);
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_init_path_from_child(Dx<B>& dx, const DistTableT<B>& child,
                                     const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  // Stored child shards may be lane-compressed: for_each_entry expands
  // each masked payload row on the fly.
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      auto emit = dx.route_to_slot(r, 1);
      child.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_init_from_child<B>(cx, e, /*flip=*/false, o, emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, 2);
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_extend_with_graph(Dx<B>& dx, DistTableT<B>& path,
                                  const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  // The shared engine's batched extension seals (and thereby merges) the
  // path before iterating; sealing the shards keeps the iterated row
  // multiset — and hence every load-model charge — in exact parity. The
  // sealed shards are consumed once right below: stay dense (kStream).
  if constexpr (B > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    path.seal_shards(SortOrder::kByV1, dx.domain, LaneSealHint::kStream);
  }
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(path.shard(r).layout());
      auto emit = dx.route_to_slot(r, 1);
      path.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_extend_with_graph<B>(cx, e, o, emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, path.arity());
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_extend_with_child(Dx<B>& dx, DistTableT<B>& path,
                                  const DistTableT<B>& child,
                                  const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  if constexpr (B > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    path.seal_shards(SortOrder::kByV1, dx.domain, LaneSealHint::kStream);
  }
  // Path entries with frontier v and child entries (v, w, ..) are
  // co-located at owner(v): the EdgeJoin probe is rank-local. The child
  // shard may be lane-compressed (stored tables): it is probed once per
  // path row, so ChildProbe expands it once up front.
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(path.shard(r).layout());
      const detail::ChildProbe<B> probe(child.shard(r));
      auto emit = dx.route_to_slot(r, 1);
      path.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_extend_with_child<B>(cx, e, probe.group(0, e.key.v[1]), o,
                                    emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, path.arity());
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_node_join(Dx<B>& dx, DistTableT<B>& path,
                          const DistTableT<B>& child, int slot) {
  const ExecContext& cx = dx.cx;
  // The shared engine's batched node join walks a born-sorted, hence
  // deduplicated, path; sealing the shards keeps the iterated row
  // multiset — and every load-model charge — in exact parity.
  if constexpr (B > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    path.seal_shards(SortOrder::kByV1, dx.domain, LaneSealHint::kStream);
  }
  // The unary child lives with owner(x) (home slot 0). Probing by the
  // anchor slot needs the path rehomed there first — a transport-only
  // superstep a real implementation pays, invisible to the load model.
  const DistTableT<B>* src = &path;
  DistTableT<B> rehomed;
  if (slot == 0 && dx.ranks() > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::transport));
    rehomed = path.resharded(0, dx.comm, dx.part(), SortOrder::kUnsorted,
                             dx.budget, dx.domain);
    src = &rehomed;
  }
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      const detail::ChildProbe<B> probe(child.shard(r));
      auto emit = dx.route_to_slot(r, 1);
      src->shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_node_join<B>(cx, e, probe.group(0, e.key.v[slot]), slot,
                            emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, path.arity());
  cx.end_phase();
  return t;
}

/// Merge the co-located (u, v) groups of the two half-cycle tables with
/// the same merge_bucket kernel as the shared engine, routing every
/// output to the owner of its slot-0 boundary image (the storage home of
/// block tables); outputs of a root merge (out_arity 0) collapse to rank
/// 0. Accumulates into the per-rank cycle sinks.
template <int B>
void d_merge_halves(Dx<B>& dx, DistTableT<B>& plus, DistTableT<B>& minus,
                    const MergeSpec& spec,
                    std::vector<AccumMapT<B>>& sinks) {
  const ExecContext& cx = dx.cx;
  // Both halves are consumed by this one merge: stay dense (kStream).
  {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    plus.seal_shards(SortOrder::kByV0V1, dx.domain, LaneSealHint::kStream);
    minus.seal_shards(SortOrder::kByV0V1, dx.domain, LaneSealHint::kStream);
  }
  {
    ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(plus.shard(r).layout());
      cx.note_lanes(minus.shard(r).layout());
      const auto pe = plus.shard(r).entries();
      const auto me = minus.shard(r).entries();
      auto route = [&](const TableKey& key,
                       const typename LaneOps<B>::Vec& cnt) {
        const std::uint32_t dest =
            spec.out_arity >= 1 ? dx.owner(key.v[0]) : 0;
        dx.comm.send(r, dest, {key, cnt});
      };
      // Two-pointer over the shard's slot-0 groups; merge_bucket handles
      // the (u, v) subgroup join and the load charges within each.
      std::size_t pi = 0, mi = 0;
      while (pi < pe.size() && mi < me.size()) {
        if (pe[pi].key.v[0] < me[mi].key.v[0]) {
          ++pi;
          continue;
        }
        if (me[mi].key.v[0] < pe[pi].key.v[0]) {
          ++mi;
          continue;
        }
        const VertexId u = pe[pi].key.v[0];
        std::size_t pj = pi, mj = mi;
        while (pj < pe.size() && pe[pj].key.v[0] == u) ++pj;
        while (mj < me.size() && me[mj].key.v[0] == u) ++mj;
        merge_bucket<B, /*Outer=*/0>(cx, pe.subspan(pi, pj - pi),
                                     me.subspan(mi, mj - mi), spec, route);
        pi = pj;
        mi = mj;
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
DistTableT<B> d_aggregate(Dx<B>& dx, DistTableT<B>& t, int new_arity) {
  const ExecContext& cx = dx.cx;
  // Same parity argument as d_node_join: the shared engine aggregates a
  // deduplicated table.
  if constexpr (B > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    t.seal_shards(SortOrder::kByV1, dx.domain, LaneSealHint::kStream);
  }
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
                             SortOrder::kUnsorted, dx.budget, dx.domain);
  cx.end_phase();
  return out;
}

/// Solved child-block tables: stored home slot 0, shards sealed kByV0
/// (the same convention as the shared TablePool), with lazily cached
/// transposes produced by a transport superstep. Stored shards seal with
/// the kStore hint, so at B > 1 they re-pack into the lane-compressed
/// layout when the observed density makes that smaller.
template <int B>
class DistPool {
 public:
  DistPool(std::size_t num_blocks, VertexId domain, bool compress,
           StageWall* stage = nullptr)
      : tables_(num_blocks),
        transposed_(num_blocks),
        has_transposed_(num_blocks, false),
        stored_(num_blocks, false),
        domain_(domain),
        hint_(compress ? LaneSealHint::kStore : LaneSealHint::kStream),
        stage_(stage) {}

  void store(int block, DistTableT<B> table) {
    {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      table.seal_shards(SortOrder::kByV0, domain_, hint_);
    }
    tables_[block] = std::move(table);
    stored_[block] = true;
  }

  const DistTableT<B>& get(int block) const { return tables_[block]; }

  const DistTableT<B>& oriented(Dx<B>& dx, int block, bool transposed) {
    if (!transposed) return tables_[block];
    if (!has_transposed_[block]) {
      // A transpose is a transport superstep plus a sealing collect;
      // charge it to transport (the seal inside is not separable here).
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->transport);
      transposed_[block] = tables_[block].transposed(
          dx.comm, dx.part(), dx.budget, domain_, hint_);
      has_transposed_[block] = true;
    }
    return transposed_[block];
  }

  /// Serialize every stored table shard-by-shard through the
  /// lane-compressed wire encoding. Cached transposes are deliberately
  /// not captured: they regenerate on demand after a restore.
  CheckpointImageT<B> checkpoint(std::size_t next_block,
                                 std::uint64_t supersteps) const {
    CheckpointImageT<B> img;
    img.next_block = next_block;
    img.supersteps = supersteps;
    for (std::size_t b = 0; b < tables_.size(); ++b) {
      if (!stored_[b]) continue;
      const DistTableT<B>& t = tables_[b];
      typename CheckpointImageT<B>::TableImage ti;
      ti.block = static_cast<int>(b);
      ti.arity = t.arity();
      ti.home_slot = t.home_slot();
      ti.shards.reserve(t.num_shards());
      for (std::uint32_t r = 0; r < t.num_shards(); ++r) {
        ti.shards.push_back(checkpoint_encode_shard<B>(t.shard(r)));
      }
      img.tables.push_back(std::move(ti));
    }
    return img;
  }

  /// Rebuild the stored tables from `img`, dropping everything newer.
  /// Decoded rows arrive in sealed order with unique keys, so re-sealing
  /// reproduces the checkpointed shards bit for bit: the counting
  /// partition is stable, unique keys sort totally inside each bucket,
  /// and the layout chooser is deterministic.
  void restore(const CheckpointImageT<B>& img, std::uint32_t ranks) {
    std::fill(stored_.begin(), stored_.end(), false);
    std::fill(has_transposed_.begin(), has_transposed_.end(), false);
    for (auto& t : tables_) t = DistTableT<B>();
    for (auto& t : transposed_) t = DistTableT<B>();
    for (const auto& ti : img.tables) {
      if (ti.block < 0 ||
          static_cast<std::size_t>(ti.block) >= tables_.size() ||
          ti.shards.size() != ranks) {
        throw CheckpointCorrupt("checkpoint table image for block " +
                                std::to_string(ti.block) +
                                " does not match the run shape");
      }
      std::vector<std::vector<TableEntryT<B>>> rows;
      rows.reserve(ti.shards.size());
      for (const std::vector<std::uint8_t>& bytes : ti.shards) {
        rows.push_back(checkpoint_decode_shard<B>(bytes));
      }
      tables_[ti.block] = DistTableT<B>::from_shard_rows(
          ti.arity, ti.home_slot, std::move(rows), SortOrder::kByV0,
          domain_, hint_);
      stored_[ti.block] = true;
    }
  }

 private:
  std::vector<DistTableT<B>> tables_;
  std::vector<DistTableT<B>> transposed_;
  std::vector<bool> has_transposed_;
  std::vector<bool> stored_;
  VertexId domain_;
  LaneSealHint hint_;
  StageWall* stage_ = nullptr;
};

template <int B>
DistTableT<B> d_build_path(Dx<B>& dx, const Block& blk, DistPool<B>& pool,
                           const PathSpec& spec) {
  const std::size_t steps = spec.positions.size();
  if (steps < 2) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "build_path: path needs at least one edge");
  }

  ExtendOpts init_opts{spec.track_slot_at[1], spec.anchor_higher};
  DistTableT<B> table;
  {
    const int e0 = spec.edge_index[0];
    const int child = blk.edge_child[e0];
    if (child < 0) {
      table = d_init_path_from_graph(dx, init_opts);
    } else {
      const DistTableT<B>& oriented = pool.oriented(
          dx, child, needs_transpose(blk, e0, spec.edge_forward[0]));
      table = d_init_path_from_child(dx, oriented, init_opts);
    }
  }
  if (spec.include_start_annot) {
    const int child = blk.node_child[spec.positions[0]];
    if (child >= 0) {
      table = d_node_join(dx, table, pool.get(child), /*slot=*/0);
    }
  }

  for (std::size_t s = 1; s < steps; ++s) {
    const bool is_end = (s + 1 == steps);
    if (!is_end || spec.include_end_annot) {
      const int child = blk.node_child[spec.positions[s]];
      if (child >= 0) {
        table = d_node_join(dx, table, pool.get(child), /*slot=*/1);
      }
    }
    if (is_end) break;
    ExtendOpts opts{spec.track_slot_at[s + 1], spec.anchor_higher};
    const int e = spec.edge_index[s];
    const int child = blk.edge_child[e];
    if (child < 0) {
      table = d_extend_with_graph(dx, table, opts);
    } else {
      const DistTableT<B>& oriented = pool.oriented(
          dx, child, needs_transpose(blk, e, spec.edge_forward[s]));
      table = d_extend_with_child(dx, table, oriented, opts);
    }
  }
  return table;
}

template <int B>
DistTableT<B> d_solve_cycle(Dx<B>& dx, const Block& blk, DistPool<B>& pool) {
  std::vector<AccumMapT<B>> sinks(dx.ranks());
  for (const SplitPlan& plan : splits_for(blk, dx.cx.opts.algo)) {
    DistTableT<B> plus = d_build_path(dx, blk, pool, plan.plus);
    DistTableT<B> minus = d_build_path(dx, blk, pool, plan.minus);
    d_merge_halves(dx, plus, minus, plan.merge, sinks);
  }
  return DistTableT<B>::from_maps(blk.boundary_count(), /*home_slot=*/0,
                                  std::move(sinks));
}

template <int B>
DistTableT<B> d_solve_leaf_edge(Dx<B>& dx, const Block& blk,
                                DistPool<B>& pool) {
  if (blk.kind != BlockKind::kLeafEdge) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "solve_leaf_edge: not a leaf-edge block");
  }
  ExtendOpts no_opts;
  DistTableT<B> table;
  const int edge_child = blk.edge_child[0];
  if (edge_child < 0) {
    table = d_init_path_from_graph(dx, no_opts);
  } else {
    table = d_init_path_from_child(
        dx, pool.oriented(dx, edge_child, blk.edge_child_flip[0]), no_opts);
  }
  if (blk.node_child[1] >= 0) {
    table = d_node_join(dx, table, pool.get(blk.node_child[1]), /*slot=*/1);
  }
  if (blk.node_child[0] >= 0) {
    table = d_node_join(dx, table, pool.get(blk.node_child[0]), /*slot=*/0);
  }
  return d_aggregate(dx, table, /*new_arity=*/1);
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
  Dx<B> dx{cx, comm, opts.max_table_entries, g.num_vertices(), fp};
  DistPool<B> pool(tree.blocks.size(), g.num_vertices(),
                   opts.lane_compress, &stats.stage);

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
