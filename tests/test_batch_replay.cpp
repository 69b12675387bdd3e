// The width-B replay names of bench_support/batch_replay.hpp, driven block
// by block the way bench_suite's traced replay drives them, at B = 1 and
// B = 8 over catalog queries under PS and DB: every lane's root total is
// the count CountingSession reports for that coloring, and lane l of each
// width-B table holds exactly the rows the single-coloring solver builds
// under lane l's coloring alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/bench_support/workloads.hpp"
#include "ccbt/core/color_coding.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"

namespace ccbt {
namespace {

using Rows = std::vector<std::pair<std::array<std::uint64_t, 5>, Count>>;

/// A table's rows in table order.
Rows rows_of(const ProjTable& t) {
  Rows out;
  t.for_each_entry([&](const TableEntry& e) {
    out.push_back(
        {{e.key.v[0], e.key.v[1], e.key.v[2], e.key.v[3], e.key.sig}, e.cnt});
  });
  return out;
}

/// bench_suite's replay_blocks, plus a single-coloring reference per lane
/// with its own pool: each width-B table is checked lane by lane against
/// the reference table. Returns the lanes' root totals.
template <int B>
std::vector<Count> replay(const CsrGraph& g, const Plan& plan,
                          const ExecOptions& opts,
                          std::span<const Coloring> colorings) {
  const DecompTree& tree = plan.tree;
  const DegreeOrder order(g);
  const ColoringBatch batch(colorings);
  StageWall stage;
  AccumTelemetry accum;
  LaneTelemetry lanes;
  ExecContext cx{g,       batch, order, BlockPartition(g.num_vertices(), 0),
                 nullptr, opts};
  cx.lane_telemetry = &lanes;
  cx.stage = &stage;
  cx.accum = &accum;
  TablePoolT<B> pool(tree.blocks.size(), g.num_vertices(), opts.lane_compress,
                     &stage);
  std::vector<ExecContext> one;
  std::vector<TablePool> ref;
  one.reserve(B);
  for (int l = 0; l < B; ++l) {
    one.push_back(cx);
    one.back().chi = ColoringBatch(colorings[l]);
    ref.emplace_back(tree.blocks.size(), g.num_vertices());
  }

  typename LaneOps<B>::Vec totals = LaneOps<B>::zero();
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    const bool is_root = static_cast<int>(i) == tree.root;
    SCOPED_TRACE("block " + std::to_string(i));
    if (blk.kind == BlockKind::kSingleton) {
      totals = pool.get(blk.node_child[0]).lane_totals();
      break;
    }
    ProjTableT<B> table;
    std::array<ProjTable, B> want;
    if (blk.kind == BlockKind::kLeafEdge) {
      table = solve_leaf_edge<B>(cx, blk, pool);
      for (int l = 0; l < B; ++l) {
        want[l] = solve_leaf_edge(one[l], blk, ref[l]);
        EXPECT_EQ(rows_of(table.lanes[l]), rows_of(want[l])) << "lane " << l;
      }
    } else {
      AccumMapT<B> sink(16, opts.compact_accum);
      std::vector<FlatRows> ref_sinks(B, FlatRows(cx.key_layout()));
      for (const SplitPlan& split : splits_for(blk, opts.algo)) {
        ProjTableT<B> plus = build_path<B>(cx, blk, pool, split.plus);
        ProjTableT<B> minus = build_path<B>(cx, blk, pool, split.minus);
        for (int l = 0; l < B; ++l) {
          ProjTable rp = build_path(one[l], blk, ref[l], split.plus);
          ProjTable rm = build_path(one[l], blk, ref[l], split.minus);
          EXPECT_EQ(rows_of(plus.lanes[l]), rows_of(rp)) << "plus " << l;
          EXPECT_EQ(rows_of(minus.lanes[l]), rows_of(rm)) << "minus " << l;
          merge_halves(one[l], rp, rm, split.merge, ref_sinks[l]);
        }
        merge_halves<B>(cx, plus, minus, split.merge, sink);
      }
      table = ProjTableT<B>::from_map(blk.boundary_count(), std::move(sink));
      for (int l = 0; l < B; ++l) {
        want[l] = ProjTable::from_sink(blk.boundary_count(),
                                       std::move(ref_sinks[l]),
                                       g.num_vertices());
        EXPECT_EQ(rows_of(table.lanes[l]), rows_of(want[l]))
            << "lane " << l;
      }
    }
    if (is_root) {
      totals = table.lane_totals();
      break;
    }
    pool.store(static_cast<int>(i), std::move(table));
    for (int l = 0; l < B; ++l) {
      ref[l].store(static_cast<int>(i), std::move(want[l]));
    }
    cx.note_lanes(pool.get(static_cast<int>(i)).layout());
  }
  EXPECT_GT(accum.phases, 0u);
  std::vector<Count> out(B);
  for (int l = 0; l < B; ++l) out[l] = LaneOps<B>::lane(totals, l);
  return out;
}

template <int B>
void expect_replay_matches_session(Algo algo) {
  const CsrGraph g = erdos_renyi(70, 320, 17);
  for (const QueryGraph& q : {q_dros(), q_brain1(), q_wiki(), q_youtube()}) {
    SCOPED_TRACE(q.name() + " " + algo_name(algo) + " B=" +
                 std::to_string(B));
    const Plan plan = make_plan(q);
    ExecOptions opts;
    opts.algo = algo;
    std::vector<Coloring> colorings;
    for (int l = 0; l < B; ++l) {
      colorings.emplace_back(g.num_vertices(), q.num_nodes(), 4100 + l);
    }
    const std::vector<Count> got =
        replay<B>(g, plan, opts, std::span<const Coloring>(colorings));
    const CountingSession session(g, q, plan, opts);
    const ExecStats want = session.count_colorful(
        ColoringBatch(std::span<const Coloring>(colorings)));
    Count sum = 0;
    for (int l = 0; l < B; ++l) {
      EXPECT_EQ(got[l], want.colorful_lane[l]) << "lane " << l;
      sum += got[l];
    }
    EXPECT_GT(sum, 0u);
  }
}

TEST(BatchReplay, OneLaneMatchesSessionUnderPS) {
  expect_replay_matches_session<1>(Algo::kPS);
}
TEST(BatchReplay, OneLaneMatchesSessionUnderDB) {
  expect_replay_matches_session<1>(Algo::kDB);
}
TEST(BatchReplay, EightLanesMatchSessionUnderPS) {
  expect_replay_matches_session<8>(Algo::kPS);
}
TEST(BatchReplay, EightLanesMatchSessionUnderDB) {
  expect_replay_matches_session<8>(Algo::kDB);
}

TEST(BatchReplay, WidthMustMatchTheBatch) {
  const CsrGraph g = erdos_renyi(20, 40, 3);
  const QueryGraph q = q_dros();
  const Plan plan = make_plan(q);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 1);
  const DegreeOrder order(g);
  const ExecContext cx{g, chi, order, BlockPartition(g.num_vertices(), 0),
                       nullptr, {}};
  TablePoolT<8> pool(plan.tree.blocks.size(), g.num_vertices(), true,
                     nullptr);
  for (const Block& blk : plan.tree.blocks) {
    if (blk.kind != BlockKind::kLeafEdge) continue;
    EXPECT_THROW(solve_leaf_edge<8>(cx, blk, pool), Error);
  }
}

}  // namespace
}  // namespace ccbt
