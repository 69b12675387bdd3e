// Unit tests for the virtual-rank BSP load model and its integration with
// the engine: op conservation, phase makespans, and the qualitative
// behaviour the scaling figures rely on.

#include <gtest/gtest.h>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/engine/load_model.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"

namespace ccbt {
namespace {

TEST(LoadModel, PhaseMakespanIsMaxOverRanks) {
  LoadModel model(4, /*comm_cost=*/2.0);
  model.add_ops(0, 10);
  model.add_ops(1, 50);
  model.add_ops(2, 20);
  model.end_phase();
  EXPECT_DOUBLE_EQ(model.sim_time(), 50.0);
  model.add_ops(3, 5);
  model.end_phase();
  EXPECT_DOUBLE_EQ(model.sim_time(), 55.0);
}

TEST(LoadModel, CommChargedToReceiver) {
  LoadModel model(2, /*comm_cost=*/3.0);
  model.add_ops(0, 10);
  model.add_comm(0, 1, 4);  // rank 1 receives 4 messages
  model.end_phase();
  EXPECT_DOUBLE_EQ(model.sim_time(), 12.0);  // max(10, 3*4)
  EXPECT_EQ(model.total_comm(), 4u);
}

TEST(LoadModel, LocalCommIsFree) {
  LoadModel model(2);
  model.add_comm(1, 1, 100);
  model.end_phase();
  EXPECT_DOUBLE_EQ(model.sim_time(), 0.0);
  EXPECT_EQ(model.total_comm(), 0u);
}

TEST(LoadModel, TotalsAggregateAcrossPhases) {
  LoadModel model(2);
  model.add_ops(0, 7);
  model.end_phase();
  model.add_ops(0, 3);
  model.add_ops(1, 4);
  model.end_phase();
  EXPECT_EQ(model.total_ops(), 14u);
  EXPECT_EQ(model.max_rank_ops(), 10u);
  EXPECT_DOUBLE_EQ(model.avg_rank_ops(), 7.0);
}

TEST(LoadModel, RepeatedPhaseChargesLikeRunningItAgain) {
  const auto phase = [](LoadModel& m) {
    m.add_ops(0, 9);
    m.add_ops(2, 4);
    m.add_comm(0, 1, 3);
    m.add_comm(2, 2, 5);
    m.end_phase();
  };
  LoadModel ran(3), repeated(3);
  for (int i = 0; i < 3; ++i) phase(ran);
  phase(repeated);
  repeated.repeat_last_phase(2);
  EXPECT_EQ(repeated.rank_ops(), ran.rank_ops());
  EXPECT_EQ(repeated.total_comm(), ran.total_comm());
  EXPECT_EQ(repeated.sim_time(), ran.sim_time());
  repeated.repeat_last_phase(0);
  EXPECT_EQ(repeated.sim_time(), ran.sim_time());
}

struct EngineLoad {
  std::uint64_t total_ops;
  std::uint64_t max_rank_ops;
  double sim_time;
};

EngineLoad run_with_ranks(const CsrGraph& g, const QueryGraph& q, Algo algo,
                          std::uint32_t ranks) {
  ExecOptions opts;
  opts.algo = algo;
  opts.sim_ranks = ranks;
  CountingSession session(g, q, make_plan(q), opts);
  const ExecStats stats = session.count_colorful_seeded(7);
  return {stats.total_ops, stats.max_rank_ops, stats.sim_time};
}

TEST(EngineLoad, TotalOpsIndependentOfRankCount) {
  const CsrGraph g = chung_lu_power_law(1500, 1.7, 5.0, 3);
  const QueryGraph q = q_glet2();
  const EngineLoad r32 = run_with_ranks(g, q, Algo::kDB, 32);
  const EngineLoad r256 = run_with_ranks(g, q, Algo::kDB, 256);
  EXPECT_EQ(r32.total_ops, r256.total_ops);
}

TEST(EngineLoad, SimTimeShrinksWithMoreRanks) {
  const CsrGraph g = chung_lu_power_law(3000, 1.7, 5.0, 4);
  const QueryGraph q = q_glet2();
  const EngineLoad r8 = run_with_ranks(g, q, Algo::kDB, 8);
  const EngineLoad r128 = run_with_ranks(g, q, Algo::kDB, 128);
  EXPECT_LT(r128.sim_time, r8.sim_time);
}

TEST(EngineLoad, MaxRankBoundsAvg) {
  const CsrGraph g = chung_lu_power_law(2000, 1.6, 5.0, 5);
  const QueryGraph q = q_wiki();
  ExecOptions opts;
  opts.algo = Algo::kPS;
  opts.sim_ranks = 64;
  CountingSession session(g, q, make_plan(q), opts);
  const ExecStats stats = session.count_colorful_seeded(3);
  EXPECT_GE(stats.max_rank_ops, static_cast<std::uint64_t>(
      stats.avg_rank_ops));
}

TEST(EngineLoad, DBReducesTotalOpsOnSkewedGraph) {
  // The core claim of the paper: on heavy-tailed graphs DB performs less
  // total work (wasteful path extensions pruned by the ≻ constraint).
  const CsrGraph g = chung_lu_power_law(4000, 1.6, 6.0, 6);
  const QueryGraph q = q_cycle(5);
  const EngineLoad ps = run_with_ranks(g, q, Algo::kPS, 64);
  const EngineLoad db = run_with_ranks(g, q, Algo::kDB, 64);
  EXPECT_LT(db.total_ops, ps.total_ops);
}

TEST(EngineLoad, DBImprovesMaxLoadOnSkewedGraph) {
  const CsrGraph g = chung_lu_power_law(4000, 1.6, 6.0, 7);
  const QueryGraph q = q_cycle(5);
  const EngineLoad ps = run_with_ranks(g, q, Algo::kPS, 64);
  const EngineLoad db = run_with_ranks(g, q, Algo::kDB, 64);
  EXPECT_LT(db.max_rank_ops, ps.max_rank_ops);
}

}  // namespace
}  // namespace ccbt
