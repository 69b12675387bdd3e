#pragma once
// Width-B names for bench_suite's traced replay (bench_suite.cpp,
// replay_blocks), which re-drives the block loop with B colorings per
// call. The engine itself runs one coloring per pass, so a width-B table
// here is B single-coloring tables, lane-major, and every call runs the
// single-coloring code once per lane on a one-lane copy of the context,
// the way run_plan runs a batch. Leaves together with the replay.

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/table/accum_map.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

template <int B>
struct LaneOps {
  using Vec = std::array<Count, B>;
  static constexpr Vec zero() { return Vec{}; }
  static constexpr Count lane(const Vec& v, int l) { return v[l]; }
};

template <int B>
struct AccumMapT {
  explicit AccumMapT(std::size_t expected = 16, bool compact = false) {
    for (AccumMap& m : lanes) m = AccumMap(expected, compact);
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const AccumMap& m : lanes) n += m.size();
    return n;
  }
  std::array<AccumMap, B> lanes;
};

template <int B>
struct ProjTableT {
  static ProjTableT from_map(int arity, AccumMapT<B>&& map) {
    ProjTableT t;
    for (int l = 0; l < B; ++l) {
      t.lanes[l] = ProjTable::from_map(arity, std::move(map.lanes[l]));
    }
    return t;
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const ProjTable& t : lanes) n += t.size();
    return n;
  }
  typename LaneOps<B>::Vec lane_totals() const {
    typename LaneOps<B>::Vec v{};
    for (int l = 0; l < B; ++l) v[l] = lanes[l].total();
    return v;
  }
  std::array<ProjTable, B> lanes;
};

template <int B>
class TablePoolT {
 public:
  /// The stored table of one block: its lanes' totals and their layouts
  /// summed.
  class Stored {
   public:
    Stored(const TablePoolT& pool, int block) : pool_(pool), block_(block) {
      for (const TablePool& p : pool.lanes) {
        const LaneLayoutInfo& x = p.get(block).layout();
        layout_.rows += x.rows;
        layout_.lane_slots += x.lane_slots;
        layout_.lanes_occupied += x.lanes_occupied;
        layout_.max_count = std::max(layout_.max_count, x.max_count);
      }
      layout_.width = choose_payload_width(layout_.max_count);
    }
    typename LaneOps<B>::Vec lane_totals() const {
      typename LaneOps<B>::Vec v{};
      for (int l = 0; l < B; ++l) v[l] = pool_.lanes[l].get(block_).total();
      return v;
    }
    const LaneLayoutInfo& layout() const { return layout_; }

   private:
    const TablePoolT& pool_;
    int block_;
    LaneLayoutInfo layout_;
  };

  /// The third argument is ignored: every pool stores dense tables.
  TablePoolT(std::size_t num_blocks, VertexId domain, bool /*lane_compress*/,
             StageWall* stage) {
    for (int l = 0; l < B; ++l) lanes.emplace_back(num_blocks, domain, stage);
  }

  void store(int block, ProjTableT<B> table) {
    for (int l = 0; l < B; ++l) {
      lanes[l].store(block, std::move(table.lanes[l]));
    }
  }
  Stored get(int block) const { return Stored(*this, block); }

  std::vector<TablePool> lanes;
};

template <int B>
ProjTableT<B> solve_leaf_edge(const ExecContext& cx, const Block& blk,
                              TablePoolT<B>& pool) {
  if (cx.chi.lanes() != B) throw Error("solve_leaf_edge: batch is not B wide");
  ProjTableT<B> out;
  for (int l = 0; l < B; ++l) {
    ExecContext one = cx;
    one.chi = ColoringBatch(cx.chi.lane(l));
    out.lanes[l] = solve_leaf_edge(one, blk, pool.lanes[l]);
  }
  return out;
}

template <int B>
ProjTableT<B> build_path(const ExecContext& cx, const Block& blk,
                         TablePoolT<B>& pool, const PathSpec& spec) {
  if (cx.chi.lanes() != B) throw Error("build_path: batch is not B wide");
  ProjTableT<B> out;
  for (int l = 0; l < B; ++l) {
    ExecContext one = cx;
    one.chi = ColoringBatch(cx.chi.lane(l));
    out.lanes[l] = build_path(one, blk, pool.lanes[l], spec);
  }
  return out;
}

template <int B>
void merge_halves(const ExecContext& cx, ProjTableT<B>& plus,
                  ProjTableT<B>& minus, const MergeSpec& spec,
                  AccumMapT<B>& sink) {
  if (cx.chi.lanes() != B) throw Error("merge_halves: batch is not B wide");
  for (int l = 0; l < B; ++l) {
    ExecContext one = cx;
    one.chi = ColoringBatch(cx.chi.lane(l));
    merge_halves(one, plus.lanes[l], minus.lanes[l], spec, sink.lanes[l]);
  }
}

}  // namespace ccbt
