// Property-based engine validation: across random treewidth-2 queries,
// random data graphs of several shapes, and random colorings, all three
// cycle strategies must agree with the brute-force colorful oracle, and
// basic invariants of the counts must hold.

#include <gtest/gtest.h>

#include <tuple>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/query/random_tw2.hpp"
#include "ccbt/query/treewidth.hpp"

namespace ccbt {
namespace {

CsrGraph make_data_graph(int shape, std::uint64_t seed) {
  switch (shape % 7) {
    case 0: return erdos_renyi(24, 58, seed);
    case 1: return chung_lu_power_law(40, 1.6, 3.5, seed);
    case 2: return grid2d(5, 5, 6, seed);
    case 3: return complete_bipartite(5, 6);
    case 4: return watts_strogatz(26, 2, 0.2, seed);
    case 5: return stochastic_block({12, 12}, 0.35, 0.05, seed);
    default: return barabasi_albert(28, 2, seed);
  }
}

// ---------------------------------------------------------------------
// Random tw2 queries vs the oracle.

class RandomQueryAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RandomQueryAgreement, AllAlgosMatchOracle) {
  const auto [query_seed, graph_shape, query_size] = GetParam();
  RandomTw2Options qopts;
  qopts.target_nodes = query_size;
  const QueryGraph q = random_tw2_query(qopts, query_seed);
  ASSERT_TRUE(treewidth_at_most_2(q));
  const CsrGraph g = make_data_graph(graph_shape, 100 + query_seed);
  const Coloring chi(g.num_vertices(), q.num_nodes(),
                     977 * query_seed + graph_shape);
  const Count oracle = count_colorful_exact(g, q, chi);
  const Plan plan = make_plan(q);
  for (Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
    ExecOptions opts;
    opts.algo = algo;
    CountingSession session(g, q, plan, opts);
    EXPECT_EQ(session.count_colorful(chi).colorful, oracle)
        << algo_name(algo) << " query=" << q.name()
        << " shape=" << graph_shape;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomQueryAgreement,
    ::testing::Combine(::testing::Range(1, 13),      // query seeds
                       ::testing::Range(0, 7),       // graph shapes
                       ::testing::Values(5, 7, 9)),  // query sizes
    [](const auto& info) {
      return "q" + std::to_string(std::get<0>(info.param)) + "_g" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Every plan of a query gives the same count (plan independence).

class PlanIndependence : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanIndependence, AllPlansAgree) {
  const QueryGraph q = named_query(GetParam());
  const CsrGraph g = erdos_renyi(22, 52, 31);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 777);
  const Count oracle = count_colorful_exact(g, q, chi);
  EnumLimits limits;
  limits.max_trees = 16;
  for (const Plan& plan : enumerate_plans(q, limits)) {
    for (Algo algo : {Algo::kPS, Algo::kDB}) {
      ExecOptions opts;
      opts.algo = algo;
      CountingSession session(g, q, plan, opts);
      EXPECT_EQ(session.count_colorful(chi).colorful, oracle)
          << algo_name(algo) << " plan features: longest="
          << plan.features.longest_cycle;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, PlanIndependence,
                         ::testing::Values("brain1", "brain3", "satellite",
                                           "theta", "ecoli1", "wiki",
                                           "glet2", "dros"));

// ---------------------------------------------------------------------
// Invariants across colorings.

class ColoringInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ColoringInvariants, ColorfulNeverExceedsMatches) {
  const int seed = GetParam();
  const CsrGraph g = erdos_renyi(26, 60, 500 + seed);
  const QueryGraph q = q_dros();
  const Count total = count_matches_exact(g, q);
  const Plan plan = make_plan(q);
  ExecOptions opts;
  CountingSession session(g, q, plan, opts);
  const Coloring chi(g.num_vertices(), q.num_nodes(), seed);
  EXPECT_LE(session.count_colorful(chi).colorful, total);
}

TEST_P(ColoringInvariants, DeterministicAcrossRuns) {
  const int seed = GetParam();
  const CsrGraph g = chung_lu_power_law(60, 1.7, 4.0, seed);
  const QueryGraph q = q_brain1();
  ExecOptions opts;
  CountingSession session(g, q, make_plan(q), opts);
  const auto a = session.count_colorful_seeded(seed).colorful;
  const auto b = session.count_colorful_seeded(seed).colorful;
  EXPECT_EQ(a, b);
}

TEST_P(ColoringInvariants, ThreadCountIndependent) {
  const int seed = GetParam();
  const CsrGraph g = erdos_renyi(200, 800, 900 + seed);
  const QueryGraph q = q_wiki();
  const Plan plan = make_plan(q);
  CountingSession session(g, q, plan, ExecOptions{});
  const Count pooled = session.count_colorful_seeded(seed).colorful;
  // One OpenMP thread takes every serial path; the pool is restored.
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const Count serial = session.count_colorful_seeded(seed).colorful;
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
  EXPECT_EQ(serial, pooled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringInvariants, ::testing::Range(1, 9));

// ---------------------------------------------------------------------
// The virtual-rank dimension must not change counts.

class RankInvariance : public ::testing::TestWithParam<int> {};

TEST_P(RankInvariance, CountsUnchangedBySimRanks) {
  const CsrGraph g = erdos_renyi(40, 120, 77);
  const QueryGraph q = q_glet2();
  const Plan plan = make_plan(q);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 5);
  Count base = 0;
  bool first = true;
  ExecOptions opts;
  opts.sim_ranks = GetParam();
  CountingSession session(g, q, plan, opts);
  const Count c = session.count_colorful(chi).colorful;
  if (first) {
    base = c;
    first = false;
  }
  ExecOptions no_ranks;
  CountingSession plain(g, q, plan, no_ranks);
  EXPECT_EQ(c, plain.count_colorful(chi).colorful);
  (void)base;
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankInvariance,
                         ::testing::Values(1, 2, 32, 512));

}  // namespace
}  // namespace ccbt
