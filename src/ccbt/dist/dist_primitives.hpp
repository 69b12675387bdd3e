#pragma once
// The distributed engine's path primitives (Section 7). Every rank builds
// its shard of a path table with the shared pull primitives of
// engine/primitives.hpp over its own vertex block, so shard r is exactly
// the shared table's buckets of r's vertices. A rank reads only what it
// holds: an extend first runs one halo superstep that sends bucket x once
// to every other rank reading it, and a slot-0 node join reads a replica
// of the unary child that one allgather superstep builds. Each primitive
// closes one load-model phase and one accumulation phase.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/dist/comm.hpp"
#include "ccbt/dist/dist_table.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/fault.hpp"

namespace ccbt::dist {

/// Distributed execution state threaded through every primitive: the
/// shared-memory ExecContext (whose LoadModel the primitives charge
/// exactly as the shared engine does) plus the transport.
struct Dx {
  const ExecContext& cx;
  VirtualComm& comm;
  std::size_t budget;
  FaultPlan* faults = nullptr;  // nullptr = no injection

  const BlockPartition& part() const { return cx.part; }
  std::uint32_t ranks() const { return comm.num_ranks(); }
  std::uint32_t owner(VertexId v) const { return cx.part.owner(v); }
};

/// Deterministically injected allocation failure at a table-materialize
/// point. Retryable: the replay layer rolls back to the last checkpoint
/// (the fault stream has advanced, so the replayed attempt rolls fresh
/// decisions and can succeed).
inline void maybe_alloc_fail(Dx& dx, const char* where) {
  if (dx.faults != nullptr && dx.faults->alloc_fails()) {
    throw Error(ErrorCode::kAllocFailed,
                std::string(where) + ": injected allocation failure");
  }
}

/// Solved child-block tables: stored home slot 0, shards sealed kByV0
/// (the same convention as the shared TablePool, so every shard is
/// dense), with two caches each built by one transport superstep on first
/// use: the transpose, and the replica of a unary table.
class DistPool {
 public:
  DistPool(std::size_t num_blocks, VertexId domain,
           StageWall* stage = nullptr)
      : tables_(num_blocks),
        transposed_(num_blocks),
        replicas_(num_blocks),
        domain_(domain),
        stage_(stage) {}

  void store(int block, DistTable table) {
    {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      table.seal_shards(SortOrder::kByV0, domain_);
    }
    tables_[block] = std::move(table);
  }

  const DistTable& get(int block) const { return *tables_[block]; }

  const DistTable& oriented(Dx& dx, int block, bool transposed) {
    if (!transposed) return get(block);
    if (!transposed_[block]) {
      // A transpose is a transport superstep plus a sealing collect;
      // charge it to transport (the seal inside is not separable here).
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->transport);
      transposed_[block] =
          get(block).transposed(dx.comm, dx.part(), dx.budget, domain_);
    }
    return *transposed_[block];
  }

  /// The whole unary table of `block` as every rank holds it after one
  /// allgather superstep, sealed kByV0.
  const ProjTable& replica(Dx& dx, int block) {
    if (!replicas_[block]) {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->transport);
      replicas_[block] = get(block).allgathered(dx.comm, domain_);
    }
    return *replicas_[block];
  }

  /// Serialize every stored table shard by shard (checkpoint.hpp).
  /// Cached transposes and replicas are deliberately not captured: they
  /// regenerate on demand after a restore.
  CheckpointImage checkpoint(std::size_t next_block,
                             std::uint64_t supersteps) const {
    CheckpointImage img;
    img.next_block = next_block;
    img.supersteps = supersteps;
    for (std::size_t b = 0; b < tables_.size(); ++b) {
      if (!tables_[b]) continue;
      const DistTable& t = *tables_[b];
      CheckpointImage::TableImage ti;
      ti.block = static_cast<int>(b);
      ti.arity = t.arity();
      ti.home_slot = t.home_slot();
      ti.shards.reserve(t.num_shards());
      for (std::uint32_t r = 0; r < t.num_shards(); ++r) {
        ti.shards.push_back(checkpoint_encode_shard(t.shard(r)));
      }
      img.tables.push_back(std::move(ti));
    }
    return img;
  }

  /// Rebuild the stored tables from `img`, dropping everything newer.
  /// Decoded rows arrive in sealed order with unique keys, so re-sealing
  /// reproduces the checkpointed shards bit for bit: the counting
  /// partition is stable and unique keys sort totally inside each bucket.
  void restore(const CheckpointImage& img, std::uint32_t ranks) {
    for (auto& t : tables_) t.reset();
    for (auto& t : transposed_) t.reset();
    for (auto& t : replicas_) t.reset();
    for (const auto& ti : img.tables) {
      if (ti.block < 0 ||
          static_cast<std::size_t>(ti.block) >= tables_.size() ||
          ti.shards.size() != ranks) {
        throw CheckpointCorrupt("checkpoint table image for block " +
                                std::to_string(ti.block) +
                                " does not match the run shape");
      }
      std::vector<std::vector<TableEntry>> rows;
      rows.reserve(ti.shards.size());
      for (const std::vector<std::uint8_t>& bytes : ti.shards) {
        rows.push_back(checkpoint_decode_shard(bytes));
      }
      tables_[ti.block] = DistTable::from_shard_rows(
          ti.arity, ti.home_slot, std::move(rows), SortOrder::kByV0,
          domain_);
    }
  }

 private:
  std::vector<std::optional<DistTable>> tables_;
  std::vector<std::optional<DistTable>> transposed_;
  std::vector<std::optional<ProjTable>> replicas_;
  VertexId domain_;
  StageWall* stage_ = nullptr;
};

/// One path phase: rank r builds its shard with `build(r, range)`, a
/// shared pull primitive over its vertices; the phase closes once all
/// ranks have built. The budget bounds the rows of all shards together.
template <typename Build>
DistTable build_shards(Dx& dx, int arity, Build&& build) {
  maybe_alloc_fail(dx, "build_shards");
  std::vector<ProjTable> shards(dx.ranks());
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
    shards[r] = build(r, VertexRange::rank(dx.part(), r));
    total += shards[r].size();
    if (total > dx.budget) {
      throw BudgetExceeded("distributed table exceeded " +
                           std::to_string(dx.budget) + " entries");
    }
  }
  detail::close_build_phase(dx.cx);
  return DistTable::from_shards(arity, /*home_slot=*/1, std::move(shards));
}

/// The halo superstep of an extend: owner(x) sends bucket x of `path`
/// once to every other rank that reads it, the owners of the vertices
/// `readers(x, add)` passes to `add`.
template <typename Readers>
void send_halo(Dx& dx, const DistTable& path, Readers&& readers) {
  ScopedStage timed(dx.cx.stage_slot(&StageWall::transport));
  std::vector<VertexId> sent(dx.ranks(), kNoVertex);  // last bucket per rank
  std::vector<std::uint32_t> dests;
  TableEntry tmp;
  for (std::uint32_t s = 0; s < dx.ranks(); ++s) {
    const ProjTable& shard = path.shard(s);
    dx.cx.note_lanes(shard.layout());  // the views carry no layout stats
    for (VertexId x = dx.part().begin(s); x < dx.part().end(s); ++x) {
      const auto [lo, hi] = shard.group_span(1, x);
      if (lo == hi) continue;
      dests.clear();
      readers(x, [&](VertexId w) {
        const std::uint32_t d = dx.owner(w);
        if (d != s && sent[d] != x) {
          sent[d] = x;
          dests.push_back(d);
        }
      });
      for (std::size_t i = lo; i < hi; ++i) {
        const TableEntry& e = shard.row_at(i, tmp);
        for (const std::uint32_t d : dests) dx.comm.send(s, d, e);
      }
    }
  }
  dx.comm.exchange();
}

/// The distributed engine's path primitives over a DistPool, for the
/// walks of engine/path_builder.hpp.
struct DistPath {
  Dx& dx;
  DistPool& pool;

  DistTable init_graph(const ExtendOpts& o) {
    return build_shards(dx, 2, [&](std::uint32_t, VertexRange range) {
      return init_path_from_graph(dx.cx, o, range);
    });
  }

  /// Bucket w reads the child rows (w, a): rank r's shard of the
  /// orientation opposite to the walk, so nothing is sent.
  DistTable init_child(int child, bool transposed, const ExtendOpts& o) {
    const DistTable& pull = pool.oriented(dx, child, !transposed);
    return build_shards(dx, 2, [&](std::uint32_t r, VertexRange range) {
      return init_path_from_child(dx.cx, pull.shard(r), /*flip=*/true, o,
                                  range);
    });
  }

  /// NodeJoin at slot 1 joins rank r's shard with its own child shard
  /// (both homed at the frontier r owns); at slot 0 with the replica.
  DistTable node_join(DistTable& path, int child, int slot) {
    const ProjTable* replica = slot == 0 ? &pool.replica(dx, child) : nullptr;
    return build_shards(dx, path.arity(), [&](std::uint32_t r,
                                              VertexRange range) {
      const ProjTable& unary =
          replica != nullptr ? *replica : pool.get(child).shard(r);
      return ccbt::node_join(dx.cx, path.shard(r), unary, slot, range);
    });
  }

  DistTable extend_graph(DistTable& path, const ExtendOpts& o) {
    (void)send_extend_halo(path, -1, false);
    return build_shards(dx, path.arity(), [&](std::uint32_t r,
                                              VertexRange range) {
      ProjTable view = halo_view(path, r);
      return extend_with_graph(dx.cx, view, o, range);
    });
  }

  DistTable extend_child(DistTable& path, int child, bool transposed,
                         const ExtendOpts& o) {
    const DistTable* pull = send_extend_halo(path, child, transposed);
    return build_shards(dx, path.arity(), [&](std::uint32_t r,
                                              VertexRange range) {
      ProjTable view = halo_view(path, r);
      return extend_with_child(dx.cx, view, pull->shard(r), o,
                               /*flip=*/true, range);
    });
  }

  /// The halo superstep of an extend of `path` across a graph edge
  /// (child < 0) or the edge child `child`. For a graph edge bucket x goes
  /// to the owners of x's neighbours. For EdgeJoin it goes to the owners
  /// of the w in the child rows (x, w) along the walk, and the returned
  /// orientation opposite to the walk is what rank r pulls from: its shard
  /// holds the rows (w, x) of the w it owns. nullptr for a graph edge.
  const DistTable* send_extend_halo(DistTable& path, int child,
                                    bool transposed) {
    if (child < 0) {
      const CsrGraph& g = dx.cx.g;
      send_halo(dx, path, [&](VertexId x, auto&& add) {
        for (VertexId w : g.neighbors(x)) add(w);
      });
      return nullptr;
    }
    const DistTable& along = pool.oriented(dx, child, transposed);
    const DistTable& pull = pool.oriented(dx, child, !transposed);
    send_halo(dx, path, [&](VertexId x, auto&& add) {
      for (const TableEntry& ce : along.shard(dx.owner(x)).group(0, x)) {
        add(ce.key.v[1]);
      }
    });
    return &pull;
  }

  /// Rank r's input for an extend over its vertices: its shard plus halo.
  ProjTable halo_view(const DistTable& path, std::uint32_t r) {
    ScopedStage timed(dx.cx.stage_slot(&StageWall::transport));
    return path.halo_view(r, dx.comm, dx.part(), !dx.cx.opts.lane_compress);
  }
};

}  // namespace ccbt::dist
