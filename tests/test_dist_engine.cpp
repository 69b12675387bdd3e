// Distributed engine cross-validation: the virtual-MPI run must produce
// exactly the shared-memory engine's colorful count AND its modeled load
// (total/max/avg ops, sim_time, modeled comm), for every algorithm and
// rank count — plus transport-layer invariants the model cannot see.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/query/random_tw2.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {
namespace {

ExecStats shared_run(const CsrGraph& g, const QueryGraph& q,
                     const Coloring& chi, Algo algo, std::uint32_t ranks) {
  ExecOptions opts;
  opts.algo = algo;
  opts.sim_ranks = ranks;
  CountingSession session(g, q, make_plan(q), opts);
  return session.count_colorful(chi);
}

DistStats dist_run(const CsrGraph& g, const QueryGraph& q,
                   const Coloring& chi, Algo algo, std::uint32_t ranks) {
  ExecOptions opts;
  opts.algo = algo;
  return run_plan_distributed(g, make_plan(q).tree, chi, ranks, opts);
}

void expect_parity(const CsrGraph& g, const QueryGraph& q, Algo algo,
                   std::uint32_t ranks, std::uint64_t color_seed) {
  const Coloring chi(g.num_vertices(), q.num_nodes(), color_seed);
  const ExecStats shared = shared_run(g, q, chi, algo, ranks);
  const DistStats dist = dist_run(g, q, chi, algo, ranks);
  const std::string label = std::string(algo_name(algo)) + " " + q.name() +
                            " R=" + std::to_string(ranks);
  EXPECT_EQ(dist.colorful, shared.colorful) << label;
  EXPECT_EQ(dist.total_ops, shared.total_ops) << label;
  EXPECT_EQ(dist.max_rank_ops, shared.max_rank_ops) << label;
  EXPECT_DOUBLE_EQ(dist.avg_rank_ops, shared.avg_rank_ops) << label;
  EXPECT_EQ(dist.total_comm, shared.total_comm) << label;
  EXPECT_DOUBLE_EQ(dist.sim_time, shared.sim_time) << label;
}

// ---------------------------------------------------------------------
// Correctness against the exact oracle.

TEST(DistEngine, TriangleMatchesOracle) {
  const CsrGraph g = erdos_renyi(30, 90, 3);
  const QueryGraph q = q_cycle(3);
  const Coloring chi(g.num_vertices(), 3, 11);
  const Count oracle = count_colorful_exact(g, q, chi);
  for (std::uint32_t ranks : {1u, 2u, 7u, 32u}) {
    EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, ranks).colorful, oracle)
        << "R=" << ranks;
  }
}

TEST(DistEngine, C5MatchesOracleAllAlgos) {
  const CsrGraph g = erdos_renyi(26, 65, 4);
  const QueryGraph q = q_cycle(5);
  const Coloring chi(g.num_vertices(), 5, 12);
  const Count oracle = count_colorful_exact(g, q, chi);
  for (Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
    EXPECT_EQ(dist_run(g, q, chi, algo, 8).colorful, oracle)
        << algo_name(algo);
  }
}

TEST(DistEngine, AnnotatedQueriesMatchOracle) {
  const CsrGraph g = erdos_renyi(24, 60, 5);
  for (const char* name : {"wiki", "youtube", "glet1", "glet2", "ecoli1"}) {
    const QueryGraph q = named_query(name);
    const Coloring chi(g.num_vertices(), q.num_nodes(), 13);
    const Count oracle = count_colorful_exact(g, q, chi);
    EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 6).colorful, oracle) << name;
  }
}

TEST(DistEngine, TreeQueryMatchesOracle) {
  const CsrGraph g = erdos_renyi(25, 55, 6);
  const QueryGraph q = q_star(3);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 14);
  EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 5).colorful,
            count_colorful_exact(g, q, chi));
}

TEST(DistEngine, SingleNodeQuery) {
  const CsrGraph g = erdos_renyi(20, 30, 7);
  const QueryGraph q(1, "node");
  const Coloring chi(g.num_vertices(), 1, 15);
  EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 4).colorful, 20u);
}

// ---------------------------------------------------------------------
// Exact load-model parity with the shared engine.

struct ParityCase {
  const char* query;
  Algo algo;
  std::uint32_t ranks;
};

class DistParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DistParity, MatchesSharedEngineModel) {
  const ParityCase& pc = GetParam();
  const CsrGraph g = chung_lu_power_law(300, 1.5, 6.0, 21);
  expect_parity(g, named_query(pc.query), pc.algo, pc.ranks, 77);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistParity,
    ::testing::Values(ParityCase{"triangle", Algo::kPS, 4},
                      ParityCase{"triangle", Algo::kDB, 4},
                      ParityCase{"glet1", Algo::kPS, 8},
                      ParityCase{"glet1", Algo::kDB, 8},
                      ParityCase{"glet2", Algo::kDB, 8},
                      ParityCase{"wiki", Algo::kPS, 16},
                      ParityCase{"wiki", Algo::kDB, 16},
                      ParityCase{"youtube", Algo::kDB, 32},
                      ParityCase{"dros", Algo::kDB, 8},
                      ParityCase{"ecoli1", Algo::kPSEven, 8},
                      ParityCase{"ecoli1", Algo::kDB, 8}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      std::string algo = algo_name(info.param.algo);
      for (char& c : algo) {
        if (c == '-') c = '_';
      }
      return std::string(info.param.query) + "_" + algo + "_R" +
             std::to_string(info.param.ranks);
    });

TEST(DistEngine, ParityOnGridGraph) {
  const CsrGraph g = grid2d(12, 12, 20, 8);
  expect_parity(g, q_cycle(4), Algo::kDB, 8, 31);
}

TEST(DistEngine, ParityOnRmat) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 6;
  const CsrGraph g = rmat(params, 9);
  expect_parity(g, named_query("youtube"), Algo::kDB, 16, 32);
}

/// B = 8: the shared engine's born-sorted tables and the distributed
/// engine's sealed shards must report the same per-lane counts and charge
/// the same load, rank for rank.
void expect_batched_parity(const CsrGraph& g, const QueryGraph& q,
                           std::uint32_t ranks, std::uint64_t color_seed) {
  std::vector<Coloring> lanes;
  for (int l = 0; l < 8; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), color_seed + l);
  }
  const ColoringBatch batch{std::span<const Coloring>(lanes)};
  ExecOptions opts;
  opts.algo = Algo::kDB;
  opts.sim_ranks = ranks;
  const ExecStats shared =
      CountingSession(g, q, make_plan(q), opts).count_colorful(batch);
  opts.sim_ranks = 0;
  const DistStats dist =
      run_plan_distributed(g, make_plan(q).tree, batch, ranks, opts);
  const std::string label = q.name() + " R=" + std::to_string(ranks);
  EXPECT_EQ(dist.colorful_lane, shared.colorful_lane) << label;
  EXPECT_EQ(dist.total_ops, shared.total_ops) << label;
  EXPECT_EQ(dist.max_rank_ops, shared.max_rank_ops) << label;
  EXPECT_DOUBLE_EQ(dist.avg_rank_ops, shared.avg_rank_ops) << label;
  EXPECT_EQ(dist.total_comm, shared.total_comm) << label;
  EXPECT_DOUBLE_EQ(dist.sim_time, shared.sim_time) << label;
}

TEST(DistEngine, BatchedLoadParityOnPendantAndCycleQueries) {
  // dros and ecoli2 end in pendant nodes, so their node joins read path
  // tables with duplicate rows on the distributed side unless sealed.
  const CsrGraph er = erdos_renyi(300, 1500, 5);
  const CsrGraph cl = chung_lu_power_law(300, 1.5, 6.0, 23);
  for (const char* name : {"dros", "ecoli2", "brain1", "wiki"}) {
    const QueryGraph q = named_query(name);
    for (const std::uint32_t ranks : {2u, 4u, 7u}) {
      expect_batched_parity(er, q, ranks, 900);
      expect_batched_parity(cl, q, ranks, 910);
    }
  }
}

TEST(DistEngine, ParityOnRandomTw2Queries) {
  const CsrGraph g = erdos_renyi(60, 150, 10);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    RandomTw2Options qo;
    qo.target_nodes = 7;
    const QueryGraph q = random_tw2_query(qo, seed);
    expect_parity(g, q, Algo::kDB, 8, 40 + seed);
  }
}

// ---------------------------------------------------------------------
// Transport-layer invariants.

TEST(DistEngine, SingleRankHasNoOffRankTraffic) {
  const CsrGraph g = erdos_renyi(30, 70, 11);
  const QueryGraph q = named_query("wiki");
  const Coloring chi(g.num_vertices(), q.num_nodes(), 50);
  const DistStats s = dist_run(g, q, chi, Algo::kDB, 1);
  EXPECT_EQ(s.transport.off_rank_entries, 0u);
  EXPECT_GT(s.transport.entries_sent, 0u);
}

TEST(DistEngine, OffRankTrafficGrowsWithRanks) {
  const CsrGraph g = chung_lu_power_law(200, 1.6, 5.0, 12);
  const QueryGraph q = q_cycle(4);
  const Coloring chi(g.num_vertices(), 4, 51);
  const DistStats s2 = dist_run(g, q, chi, Algo::kDB, 2);
  const DistStats s16 = dist_run(g, q, chi, Algo::kDB, 16);
  EXPECT_EQ(s2.colorful, s16.colorful);
  EXPECT_GT(s16.transport.off_rank_entries, s2.transport.off_rank_entries);
}

TEST(DistEngine, ActualTrafficAtLeastModeledTraffic) {
  // The model sees extension and merge routing only; the transport also
  // pays for resharding and orientation, so actual >= modeled off-rank
  // cannot be asserted entry-for-entry, but total sends must dominate the
  // modeled communication volume.
  const CsrGraph g = chung_lu_power_law(200, 1.6, 5.0, 13);
  const QueryGraph q = named_query("ecoli1");
  const Coloring chi(g.num_vertices(), q.num_nodes(), 52);
  const DistStats s = dist_run(g, q, chi, Algo::kDB, 8);
  EXPECT_GE(s.transport.entries_sent, s.total_comm);
}

TEST(DistEngine, CountInvariantAcrossRankCounts) {
  const CsrGraph g = chung_lu_power_law(150, 1.5, 5.0, 14);
  const QueryGraph q = named_query("glet2");
  const Coloring chi(g.num_vertices(), q.num_nodes(), 53);
  const Count base = dist_run(g, q, chi, Algo::kDB, 1).colorful;
  for (std::uint32_t ranks : {2u, 3u, 5u, 12u, 64u, 512u}) {
    EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, ranks).colorful, base)
        << "R=" << ranks;
  }
}

TEST(DistEngine, MoreRanksThanVerticesStillCorrect) {
  const CsrGraph g = erdos_renyi(12, 22, 15);
  const QueryGraph q = q_cycle(3);
  const Coloring chi(g.num_vertices(), 3, 54);
  EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 64).colorful,
            count_colorful_exact(g, q, chi));
}

// ---------------------------------------------------------------------
// Failure injection.

TEST(DistEngine, BudgetExceededThrows) {
  const CsrGraph g = erdos_renyi(60, 200, 16);
  const QueryGraph q = q_cycle(5);
  const Coloring chi(g.num_vertices(), 5, 55);
  ExecOptions opts;
  opts.algo = Algo::kPS;
  opts.max_table_entries = 10;
  EXPECT_THROW(run_plan_distributed(g, make_plan(q).tree, chi, 4, opts),
               BudgetExceeded);
}

TEST(DistEngine, MissingRootRejected) {
  const CsrGraph g = erdos_renyi(10, 15, 17);
  const Coloring chi(g.num_vertices(), 3, 56);
  DecompTree empty;
  EXPECT_THROW(run_plan_distributed(g, empty, chi, 2, {}), Error);
}

}  // namespace
}  // namespace ccbt
