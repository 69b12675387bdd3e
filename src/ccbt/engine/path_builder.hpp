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
// Pool and builder are parameterized on the batch width B (the aliases
// keep the scalar names); the construction sequence itself is coloring
// independent, so all widths share it.

#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/exec_context.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

/// Solved child tables, sealed kByV0, with cached transposes. `domain`
/// (the data graph's vertex count) lets stored tables build their O(1)
/// bucket index at seal time. Stored tables are probed repeatedly, so
/// they seal with the kStore hint: at B > 1 the seal re-packs them into
/// the lane-compressed layout when that is smaller (`compress` off pins
/// the dense layout, ExecOptions::lane_compress).
template <int B>
class TablePoolT {
 public:
  explicit TablePoolT(std::size_t num_blocks, VertexId domain = 0,
                      bool compress = true, StageWall* stage = nullptr)
      : tables_(num_blocks),
        domain_(domain),
        compress_(compress),
        stage_(stage) {}

  void store(int block, ProjTableT<B> table) {
    {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      table.seal(SortOrder::kByV0, domain_, store_hint());
    }
    if (transposed_.empty()) {
      transposed_.resize(tables_.size());
      has_transposed_.resize(tables_.size(), false);
    }
    tables_[block] = std::move(table);
  }

  const ProjTableT<B>& get(int block) const { return tables_[block]; }

  /// The child table with slot 0 = `from`'s image; transposes lazily.
  const ProjTableT<B>& oriented(int block, bool transposed) {
    if (!transposed) return tables_[block];
    if (!has_transposed_[block]) {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      ProjTableT<B> t = tables_[block].transposed();
      t.seal(SortOrder::kByV0, domain_, store_hint());
      transposed_[block] = std::move(t);
      has_transposed_[block] = true;
    }
    return transposed_[block];
  }

  LaneSealHint store_hint() const {
    return compress_ ? LaneSealHint::kStore : LaneSealHint::kStream;
  }

  std::size_t total_entries() const {
    std::size_t sum = 0;
    for (const auto& t : tables_) sum += t.size();
    return sum;
  }

 private:
  std::vector<ProjTableT<B>> tables_;
  std::vector<ProjTableT<B>> transposed_;  // lazily filled
  std::vector<bool> has_transposed_;
  VertexId domain_ = 0;
  bool compress_ = true;
  StageWall* stage_ = nullptr;
};

using TablePool = TablePoolT<1>;

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

/// Build the projection table of one half-cycle path.
template <int B>
ProjTableT<B> build_path(const ExecContext& cx, const Block& blk,
                         TablePoolT<B>& pool, const PathSpec& spec) {
  const std::size_t steps = spec.positions.size();
  if (steps < 2) throw Error("build_path: path needs at least one edge");

  // B > 1 builds each table bucket by bucket from the child rows that end
  // in the bucket, so it reads edge children through the opposite
  // orientation (both are cached by the pool) and says so with `flip`.
  constexpr bool kFlip = B > 1;

  // --- Initial table: the first edge of the walk.
  ExtendOpts init_opts{spec.track_slot_at[1], spec.anchor_higher};
  ProjTableT<B> table;
  {
    const int e0 = spec.edge_index[0];
    const int child = blk.edge_child[e0];
    if (child < 0) {
      table = init_path_from_graph<B>(cx, init_opts);
    } else {
      const ProjTableT<B>& oriented = pool.oriented(
          child, needs_transpose(blk, e0, spec.edge_forward[0]) != kFlip);
      table = init_path_from_child<B>(cx, oriented, kFlip, init_opts);
    }
  }
  if (spec.include_start_annot) {
    const int child = blk.node_child[spec.positions[0]];
    if (child >= 0) {
      table = node_join<B>(cx, table, pool.get(child), /*slot=*/0);
    }
  }

  // --- Walk: NodeJoin at each reached position, then extend (Fig 7).
  for (std::size_t s = 1; s < steps; ++s) {
    const bool is_end = (s + 1 == steps);
    if (!is_end || spec.include_end_annot) {
      const int child = blk.node_child[spec.positions[s]];
      if (child >= 0) {
        table = node_join<B>(cx, table, pool.get(child), /*slot=*/1);
      }
    }
    if (is_end) break;
    ExtendOpts opts{spec.track_slot_at[s + 1], spec.anchor_higher};
    const int e = spec.edge_index[s];
    const int child = blk.edge_child[e];
    if (child < 0) {
      table = extend_with_graph<B>(cx, table, opts);
    } else {
      const ProjTableT<B>& oriented = pool.oriented(
          child, needs_transpose(blk, e, spec.edge_forward[s]) != kFlip);
      table = extend_with_child<B>(cx, table, oriented, opts, kFlip);
    }
  }
  return table;
}

extern template ProjTableT<1> build_path<1>(const ExecContext&, const Block&,
                                            TablePoolT<1>&, const PathSpec&);
extern template ProjTableT<2> build_path<2>(const ExecContext&, const Block&,
                                            TablePoolT<2>&, const PathSpec&);
extern template ProjTableT<4> build_path<4>(const ExecContext&, const Block&,
                                            TablePoolT<4>&, const PathSpec&);
extern template ProjTableT<8> build_path<8>(const ExecContext&, const Block&,
                                            TablePoolT<8>&, const PathSpec&);

}  // namespace ccbt
