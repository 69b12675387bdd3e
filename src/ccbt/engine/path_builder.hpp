#pragma once
// Generic path-table construction over a cycle block (Fig 7).
//
// A PathSpec describes one half of a split cycle: the sequence of node
// positions from the anchor to the end, which cycle edge is crossed at
// each step (and in which storage direction), which positions must be
// *tracked* into extra key slots (interior boundary nodes of the DB
// configurations), and which of the two shared endpoints' annotations this
// path owns (P+ owns the end's, P- owns the anchor's — Section 5.2).
//
// A walk is a list of ops (PathOp, from walk_path) that either engine runs
// on its own table type through apply_op.

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/exec_context.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

/// Solved child tables with cached transposes. Each is a summed sink
/// that arrived sealed kByV0 with its bucket index (ProjTable::from_sink),
/// so storing one moves it in, and both are dense, so joins probe them
/// through group() directly. `domain` is the data graph's vertex count,
/// which a transpose builds its sink and index over.
class TablePool {
 public:
  explicit TablePool(std::size_t num_blocks, VertexId domain = 0,
                     StageWall* stage = nullptr)
      : tables_(num_blocks),
        transposed_(num_blocks),
        domain_(domain),
        stage_(stage) {}

  void store(int block, ProjTable table) {
    assert(table.order() == SortOrder::kByV0);
    tables_[block] = std::move(table);
  }

  const ProjTable& get(int block) const { return tables_[block]; }

  /// The child table with slot 0 = `from`'s image; transposes lazily.
  const ProjTable& oriented(int block, bool transposed) {
    if (!transposed) return tables_[block];
    if (!transposed_[block]) {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      transposed_[block] = tables_[block].transposed(domain_);
    }
    return *transposed_[block];
  }

  std::size_t total_entries() const {
    std::size_t sum = 0;
    for (const auto& t : tables_) sum += t.size();
    return sum;
  }

 private:
  std::vector<ProjTable> tables_;
  std::vector<std::optional<ProjTable>> transposed_;  // lazily filled
  VertexId domain_ = 0;
  StageWall* stage_ = nullptr;
};

struct PathSpec {
  /// Positions (indices into Block::nodes) visited, anchor first.
  std::vector<int> positions;

  /// edge_index[i] is the block edge crossed between positions[i] and
  /// positions[i+1]; edge_forward[i] is true when that walk direction
  /// matches the edge's storage direction nodes[e] -> nodes[e+1].
  std::vector<int> edge_index;
  std::vector<bool> edge_forward;

  /// track_slot_at[i] >= 2: record positions[i]'s image in that key slot.
  std::vector<int> track_slot_at;

  bool include_start_annot = false;  // NodeJoin(anchor) — P- owns it
  bool include_end_annot = false;    // NodeJoin(end)    — P+ owns it
  bool anchor_higher = false;        // DB: anchor ≻ every cycle vertex
};

/// Whether crossing edge `e` in walk direction `forward` needs the child's
/// transposed table: the child's first boundary must be the node the walk
/// leaves from. Shared with the distributed engine.
bool needs_transpose(const Block& blk, int edge, bool forward);

/// One primitive of a walk. A table depends only on the ops that built
/// it, not on the split or half that asked, so two walks with equal op
/// prefixes build equal tables there: the cycle solvers' walk schedule
/// (cycle_solver.hpp) builds each distinct prefix once.
struct PathOp {
  enum class Kind : std::uint8_t {
    kInitGraph, kInitChild, kNodeJoin, kExtendGraph, kExtendChild
  };
  Kind kind = Kind::kInitGraph;
  int child = -1;           // the child block read (-1 = data-graph edges)
  bool transposed = false;  // the walk runs along the child's transpose
  int slot = 0;             // node_join's key slot
  ExtendOpts opts;          // init and extend options

  bool extends() const {
    return kind == Kind::kExtendGraph || kind == Kind::kExtendChild;
  }
  auto operator<=>(const PathOp&) const = default;
};

using PathOps = std::vector<PathOp>;

/// The ops of one half-cycle walk in phase order (Fig 7): an init along
/// its first edge, then at each reached position a NodeJoin with the
/// position's annotation (the end's only when the walk owns it) and an
/// extend along the next edge. `transposed` says the walk runs along the
/// child's transposed table (needs_transpose).
PathOps walk_path(const Block& blk, const PathSpec& spec);

/// Run one op on either engine's `ops`, whose init_graph(o),
/// init_child(child, transposed, o), node_join(table, child, slot),
/// extend_graph(table, o) and extend_child(table, child, transposed, o)
/// build its table type. Every op but an init reads `in`.
template <typename Ops, typename Table>
Table apply_op(Ops& ops, Table* in, const PathOp& op) {
  switch (op.kind) {
    case PathOp::Kind::kInitGraph: return ops.init_graph(op.opts);
    case PathOp::Kind::kInitChild:
      return ops.init_child(op.child, op.transposed, op.opts);
    case PathOp::Kind::kNodeJoin: return ops.node_join(*in, op.child, op.slot);
    case PathOp::Kind::kExtendGraph: return ops.extend_graph(*in, op.opts);
    case PathOp::Kind::kExtendChild:
      return ops.extend_child(*in, op.child, op.transposed, op.opts);
  }
  throw Error("apply_op: unknown op");
}

/// The table of a whole walk: its ops run one after another.
template <typename Ops>
auto run_path(Ops& ops, const PathOps& path) {
  using Table = decltype(ops.init_graph(ExtendOpts{}));
  Table table = apply_op<Ops, Table>(ops, nullptr, path.front());
  for (std::size_t i = 1; i < path.size(); ++i) {
    table = apply_op(ops, &table, path[i]);
  }
  return table;
}

/// A leaf-edge block's table before its projection onto the boundary
/// node a (Section 5.2, last paragraph): the edge keyed (π(a), π(b)),
/// joined with the leaf node b's annotation and then with a's.
template <typename Ops>
auto walk_leaf_edge(Ops& ops, const Block& blk) {
  if (blk.kind != BlockKind::kLeafEdge) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "solve_leaf_edge: not a leaf-edge block");
  }
  const int edge_child = blk.edge_child[0];
  auto table = edge_child < 0 ? ops.init_graph(ExtendOpts{})
                              : ops.init_child(edge_child,
                                               blk.edge_child_flip[0],
                                               ExtendOpts{});
  if (blk.node_child[1] >= 0) {
    table = ops.node_join(table, blk.node_child[1], /*slot=*/1);
  }
  if (blk.node_child[0] >= 0) {
    table = ops.node_join(table, blk.node_child[0], /*slot=*/0);
  }
  return table;
}

/// The shared engine's primitives over a TablePool, for the walks. Each
/// table is built bucket by bucket from the child rows that end in the
/// bucket, so edge children are read through the orientation opposite to
/// the walk (both are cached by the pool).
struct SharedPath {
  const ExecContext& cx;
  TablePool& pool;

  ProjTable init_graph(const ExtendOpts& o) {
    return init_path_from_graph(cx, o);
  }
  ProjTable init_child(int child, bool transposed, const ExtendOpts& o) {
    return init_path_from_child(cx, pool.oriented(child, !transposed), o);
  }
  ProjTable node_join(ProjTable& t, int child, int slot) {
    return ccbt::node_join(cx, t, pool.get(child), slot);
  }
  ProjTable extend_graph(ProjTable& t, const ExtendOpts& o) {
    return extend_with_graph(cx, t, o);
  }
  ProjTable extend_child(ProjTable& t, int child, bool transposed,
                         const ExtendOpts& o) {
    return extend_with_child(cx, t, pool.oriented(child, !transposed), o);
  }
};

/// Build the projection table of one half-cycle path.
ProjTable build_path(const ExecContext& cx, const Block& blk,
                     TablePool& pool, const PathSpec& spec);

}  // namespace ccbt
