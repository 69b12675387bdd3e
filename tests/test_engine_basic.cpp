// Engine correctness on structured cases: every algorithm (PS, PS-EVEN,
// DB) must agree with the brute-force colorful oracle, block by block.

#include <gtest/gtest.h>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {
namespace {

Count engine_count(const CsrGraph& g, const QueryGraph& q,
                   const Coloring& chi, Algo algo) {
  ExecOptions opts;
  opts.algo = algo;
  CountingSession session(g, q, make_plan(q), opts);
  return session.count_colorful(chi).colorful;
}

void expect_all_algos_match_oracle(const CsrGraph& g, const QueryGraph& q,
                                   std::uint64_t color_seed) {
  const Coloring chi(g.num_vertices(), q.num_nodes(), color_seed);
  const Count oracle = count_colorful_exact(g, q, chi);
  EXPECT_EQ(engine_count(g, q, chi, Algo::kPS), oracle)
      << "PS " << q.name() << " seed=" << color_seed;
  EXPECT_EQ(engine_count(g, q, chi, Algo::kPSEven), oracle)
      << "PS-EVEN " << q.name() << " seed=" << color_seed;
  EXPECT_EQ(engine_count(g, q, chi, Algo::kDB), oracle)
      << "DB " << q.name() << " seed=" << color_seed;
}

TEST(EngineBasic, SingleNodeQuery) {
  const CsrGraph g = erdos_renyi(20, 30, 1);
  const QueryGraph q(1, "node");
  const Coloring chi(g.num_vertices(), 1, 5);
  EXPECT_EQ(engine_count(g, q, chi, Algo::kDB), 20u);
}

TEST(EngineBasic, SingleEdgeQuery) {
  const CsrGraph g = erdos_renyi(20, 40, 2);
  expect_all_algos_match_oracle(g, q_path(2), 11);
}

TEST(EngineBasic, TriangleOnK4) {
  expect_all_algos_match_oracle(complete_graph(4), q_cycle(3), 3);
}

TEST(EngineBasic, TriangleOnRandom) {
  expect_all_algos_match_oracle(erdos_renyi(30, 90, 3), q_cycle(3), 4);
}

TEST(EngineBasic, C4OnRandom) {
  expect_all_algos_match_oracle(erdos_renyi(30, 80, 4), q_cycle(4), 5);
}

TEST(EngineBasic, C5OnRandom) {
  expect_all_algos_match_oracle(erdos_renyi(28, 70, 5), q_cycle(5), 6);
}

TEST(EngineBasic, C6OnRandom) {
  expect_all_algos_match_oracle(erdos_renyi(26, 60, 6), q_cycle(6), 7);
}

TEST(EngineBasic, C7OnRandom) {
  expect_all_algos_match_oracle(erdos_renyi(24, 55, 7), q_cycle(7), 8);
}

TEST(EngineBasic, PathQueries) {
  const CsrGraph g = erdos_renyi(26, 60, 8);
  for (int len : {3, 4, 5, 6}) {
    expect_all_algos_match_oracle(g, q_path(len), 20 + len);
  }
}

TEST(EngineBasic, StarQueries) {
  const CsrGraph g = erdos_renyi(25, 70, 9);
  for (int leaves : {2, 3, 4}) {
    expect_all_algos_match_oracle(g, q_star(leaves), 30 + leaves);
  }
}

TEST(EngineBasic, BinaryTree) {
  expect_all_algos_match_oracle(erdos_renyi(25, 55, 10),
                                q_complete_binary_tree(7), 40);
}

TEST(EngineBasic, DiamondOnRandom) {
  expect_all_algos_match_oracle(erdos_renyi(28, 85, 11), q_glet2(), 41);
}

TEST(EngineBasic, ThetaGraph) {
  expect_all_algos_match_oracle(erdos_renyi(26, 75, 12),
                                named_query("theta"), 42);
}

TEST(EngineBasic, BowtieWiki) {
  expect_all_algos_match_oracle(erdos_renyi(26, 75, 13), q_wiki(), 43);
}

TEST(EngineBasic, TailedTriangleYoutube) {
  expect_all_algos_match_oracle(erdos_renyi(26, 70, 14), q_youtube(), 44);
}

TEST(EngineBasic, DrosQuery) {
  expect_all_algos_match_oracle(erdos_renyi(24, 60, 15), q_dros(), 45);
}

TEST(EngineBasic, Ecoli1Query) {
  expect_all_algos_match_oracle(erdos_renyi(24, 60, 16), q_ecoli1(), 46);
}

TEST(EngineBasic, Ecoli2Query) {
  expect_all_algos_match_oracle(erdos_renyi(24, 55, 17), q_ecoli2(), 47);
}

TEST(EngineBasic, Brain1Query) {
  expect_all_algos_match_oracle(erdos_renyi(22, 50, 18), q_brain1(), 48);
}

TEST(EngineBasic, Brain2Query) {
  expect_all_algos_match_oracle(erdos_renyi(22, 48, 19), q_brain2(), 49);
}

TEST(EngineBasic, Brain3Query) {
  expect_all_algos_match_oracle(erdos_renyi(22, 46, 20), q_brain3(), 50);
}

TEST(EngineBasic, SatelliteQuery) {
  expect_all_algos_match_oracle(erdos_renyi(20, 44, 21), q_satellite(), 51);
}

TEST(EngineBasic, DenseSmallGraph) {
  // K6 stresses all join paths with many overlapping matches.
  expect_all_algos_match_oracle(complete_graph(6), q_glet2(), 52);
  expect_all_algos_match_oracle(complete_graph(6), q_wiki(), 53);
}

TEST(EngineBasic, GridGraph) {
  expect_all_algos_match_oracle(grid2d(5, 5, 4, 22), q_glet1(), 54);
  expect_all_algos_match_oracle(grid2d(5, 5, 4, 22), q_cycle(6), 55);
}

TEST(EngineBasic, StarDataGraphHighSkew) {
  // Extreme hub: exactly the degree skew DB is designed around.
  expect_all_algos_match_oracle(star_graph(15), q_star(4), 56);
  expect_all_algos_match_oracle(star_graph(15), q_cycle(3), 57);
}

TEST(EngineBasic, ZeroWhenQueryBiggerThanGraph) {
  const CsrGraph g = cycle_graph(4);
  const Coloring chi(4, 6, 3);
  EXPECT_EQ(engine_count(g, q_cycle(6), chi, Algo::kDB), 0u);
}

TEST(EngineBasic, BudgetExceededThrows) {
  const CsrGraph g = erdos_renyi(60, 500, 23);
  const QueryGraph q = q_cycle(6);
  ExecOptions opts;
  opts.algo = Algo::kPS;
  opts.max_table_entries = 8;
  CountingSession session(g, q, make_plan(q), opts);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 9);
  EXPECT_THROW(session.count_colorful(chi), BudgetExceeded);
}

TEST(EngineBasic, SessionRejectsBudgetPastU32OffsetLimit) {
  const CsrGraph g = erdos_renyi(30, 60, 25);
  const QueryGraph q = q_cycle(4);
  ExecOptions opts;
  opts.max_table_entries = std::size_t{0xFFFFFFFFu} + 1;
  EXPECT_THROW(CountingSession(g, q, make_plan(q), opts), BudgetExceeded);
  opts.max_table_entries = 0xFFFFFFFFu;
  const CountingSession session(g, q, make_plan(q), opts);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 10);
  EXPECT_EQ(session.count_colorful(chi).colorful,
            count_colorful_exact(g, q, chi));
}

TEST(EngineBasic, RunPlanRejectsBudgetPastU32OffsetLimit) {
  const CsrGraph g = erdos_renyi(30, 60, 26);
  const QueryGraph q = q_cycle(4);
  const Plan plan = make_plan(q);
  const DegreeOrder order(g);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 11);
  ExecOptions opts;
  opts.max_table_entries = std::size_t{0xFFFFFFFFu} + 1;
  const ExecContext over{g, ColoringBatch(chi), order,
                         BlockPartition(g.num_vertices(), 0), nullptr, opts};
  EXPECT_THROW(run_plan(over, plan.tree), BudgetExceeded);
  opts.max_table_entries = 0xFFFFFFFFu;
  const ExecContext at{g, ColoringBatch(chi), order,
                       BlockPartition(g.num_vertices(), 0), nullptr, opts};
  EXPECT_EQ(run_plan(at, plan.tree).colorful,
            count_colorful_exact(g, q, chi));
}

TEST(EngineBasic, IdOrderAblationMatchesOracle) {
  const CsrGraph g = erdos_renyi(26, 70, 24);
  const QueryGraph q = q_cycle(5);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 10);
  ExecOptions opts;
  opts.algo = Algo::kDB;
  opts.order_by_id = true;
  CountingSession session(g, q, make_plan(q), opts);
  EXPECT_EQ(session.count_colorful(chi).colorful,
            count_colorful_exact(g, q, chi));
}

}  // namespace
}  // namespace ccbt
