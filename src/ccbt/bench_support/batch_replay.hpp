#pragma once
// Width-B names for bench_suite's traced replay (bench_suite.cpp,
// replay_blocks), which re-drives the block loop with B colorings per
// call. The engine itself runs one coloring per pass, so a width-B table
// here is B single-coloring tables, lane-major, and every call runs the
// single-coloring code once per lane on a one-lane copy of the context,
// the way run_plan runs a batch. A width-B sink keeps the replay's old
// names, AccumMapT and ProjTableT::from_map, over one FlatRows sink per
// lane. Leaves together with the replay.

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/table/flat_rows.hpp"
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
  /// Both arguments are ignored: every sink holds packed rows while its
  /// keys pack, and grows as rows arrive.
  explicit AccumMapT(std::size_t /*expected*/ = 16, bool /*compact*/ = true) {}
  std::size_t size() const {
    std::size_t n = 0;
    for (const FlatRows& m : lanes) n += m.size();
    return n;
  }
  /// One sink per lane, in the data graph's key layout, and the graph's
  /// vertex count and stage collector, which the tables take their index
  /// and seal time from: set by the first merge_halves, which knows the
  /// graph.
  std::vector<FlatRows> lanes;
  VertexId domain = 0;
  StageWall* stage = nullptr;
};

template <int B>
struct ProjTableT {
  static ProjTableT from_map(int arity, AccumMapT<B>&& map) {
    ProjTableT t;
    ScopedStage timed(map.stage == nullptr ? nullptr : &map.stage->seal);
    for (int l = 0; l < B; ++l) {
      t.lanes[l] = map.lanes.empty()
                       ? ProjTable(arity)
                       : ProjTable::from_sink(arity, std::move(map.lanes[l]),
                                              map.domain);
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
        layout_.add(p.get(block).layout());
      }
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
  if (sink.lanes.empty()) {
    sink.lanes.assign(B, FlatRows(cx.key_layout()));
    sink.domain = cx.g.num_vertices();
    sink.stage = cx.stage;
  }
  for (int l = 0; l < B; ++l) {
    ExecContext one = cx;
    one.chi = ColoringBatch(cx.chi.lane(l));
    merge_halves(one, plus.lanes[l], minus.lanes[l], spec, sink.lanes[l]);
  }
}

}  // namespace ccbt
