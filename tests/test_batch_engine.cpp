// Batched multi-coloring execution: a plan run over a B-lane coloring
// batch must report, lane for lane, exactly the colorful counts of B
// independent single-coloring runs with the same seeds — across graph
// models, query shapes, all three Algo variants, and both engines
// (shared-memory and virtual-MPI) — and its stats must be the sums of
// those runs'. Estimator batching must likewise be invisible in the
// per-trial results.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/core/estimator.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {
namespace {

/// Per-lane colorful counts of one batched execution vs. `width`
/// independent scalar executions over the same seeds.
void expect_lane_parity(const CsrGraph& g, const QueryGraph& q, Algo algo,
                        int width, std::uint64_t base_seed) {
  ExecOptions opts;
  opts.algo = algo;
  CountingSession session(g, q, make_plan(q), opts);

  std::vector<std::uint64_t> seeds;
  for (int l = 0; l < width; ++l) seeds.push_back(base_seed + l);

  const ExecStats batched = session.count_colorful_seeded(
      std::span<const std::uint64_t>(seeds.data(), seeds.size()));
  EXPECT_EQ(batched.lanes_used, width);
  for (int l = 0; l < width; ++l) {
    const ExecStats solo = session.count_colorful_seeded(seeds[l]);
    EXPECT_EQ(batched.colorful_lane[l], solo.colorful)
        << algo_name(algo) << " " << q.name() << " lane " << l << " of "
        << width;
  }
  EXPECT_EQ(batched.colorful, batched.colorful_lane[0]);
}

TEST(BatchEngine, LanesMatchIndependentRunsOnErdosRenyi) {
  const CsrGraph g = erdos_renyi(60, 260, 7);
  for (const Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
    expect_lane_parity(g, q_cycle(4), algo, 4, 100);
    expect_lane_parity(g, q_glet2(), algo, 4, 200);
    expect_lane_parity(g, q_wiki(), algo, 4, 300);
  }
}

TEST(BatchEngine, LanesMatchIndependentRunsOnBarabasiAlbert) {
  const CsrGraph g = barabasi_albert(80, 4, 9);
  for (const Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
    expect_lane_parity(g, q_cycle(5), algo, 4, 400);
    expect_lane_parity(g, q_glet2(), algo, 4, 500);
  }
}

TEST(BatchEngine, AllSupportedWidths) {
  const CsrGraph g = erdos_renyi(50, 200, 21);
  for (int width = 1; width <= kMaxBatchLanes; ++width) {
    expect_lane_parity(g, q_glet2(), Algo::kDB, width, 600);
  }
}

TEST(BatchEngine, UnsupportedWidthThrows) {
  // The lane limit is the batch's own: nine colorings do not form one.
  const std::vector<Coloring> nine(9, Coloring(20, 3, 1));
  EXPECT_THROW(ColoringBatch{std::span<const Coloring>(nine)}, Error);
}

TEST(BatchEngine, PackedRowsMatchExactEveryWidth) {
  // The packed rows (path tables and sinks) are an execution
  // detail: per-lane counts must equal the exact colorful counts and the
  // independent scalar runs', at every width.
  const CsrGraph g = barabasi_albert(70, 4, 31);
  const QueryGraph q = q_wiki();
  CountingSession session(g, q, make_plan(q));
  for (const int width : {2, 4, 8}) {
    std::vector<std::uint64_t> seeds;
    for (int l = 0; l < width; ++l) seeds.push_back(800 + l);
    const ExecStats a = session.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), seeds.size()));
    for (int l = 0; l < width; ++l) {
      const Coloring chi(g.num_vertices(), q.num_nodes(), seeds[l]);
      EXPECT_EQ(a.colorful_lane[l], count_colorful_exact(g, q, chi))
          << "width " << width << " lane " << l;
      EXPECT_EQ(a.colorful_lane[l],
                session.count_colorful_seeded(seeds[l]).colorful)
          << "width " << width << " lane " << l;
    }
    EXPECT_GT(a.lanes.rows_packed, 0u);
  }
}

TEST(BatchEngine, PackedSinksMatchExact) {
  // The cycle sinks and aggregates hold packed rows while their keys
  // pack; the counts must equal the exact ones.
  const CsrGraph g = erdos_renyi(60, 240, 3);
  const QueryGraph q = q_wiki();
  CountingSession session(g, q, make_plan(q));
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const Coloring chi(g.num_vertices(), q.num_nodes(), seed);
    EXPECT_EQ(session.count_colorful_seeded(seed).colorful,
              count_colorful_exact(g, q, chi));
  }
}

TEST(BatchEngine, SingleNodeQueryFillsEveryLane) {
  const CsrGraph g = erdos_renyi(25, 40, 5);
  const QueryGraph q(1, "node");
  CountingSession session(g, q, make_plan(q));
  const std::array<std::uint64_t, 4> seeds{1, 2, 3, 4};
  const ExecStats stats = session.count_colorful_seeded(
      std::span<const std::uint64_t>(seeds.data(), seeds.size()));
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(stats.colorful_lane[l], g.num_vertices());
  }
}

// ---------------------------------------------------------------------
// Distributed engine: one batched virtual-MPI run per width, lanes
// checked against scalar distributed runs (which are themselves parity-
// checked against the shared engine in test_dist_engine).

TEST(BatchEngine, DistributedLanesMatchScalarRuns) {
  const CsrGraph g = erdos_renyi(40, 160, 13);
  const QueryGraph q = q_glet2();
  const Plan plan = make_plan(q);
  std::vector<Coloring> lanes;
  for (int l = 0; l < 7; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), 700 + l);
  }
  for (const int width : {3, 4, 7}) {
    const ColoringBatch batch{std::span<const Coloring>(lanes.data(), width)};
    for (const Algo algo : {Algo::kPS, Algo::kDB}) {
      ExecOptions opts;
      opts.algo = algo;
      const DistStats batched =
          run_plan_distributed(g, plan.tree, batch, /*ranks=*/3, opts);
      EXPECT_EQ(batched.lanes_used, width);
      for (int l = 0; l < width; ++l) {
        const DistStats solo =
            run_plan_distributed(g, plan.tree, lanes[l], /*ranks=*/3, opts);
        EXPECT_EQ(batched.colorful_lane[l], solo.colorful)
            << algo_name(algo) << " lane " << l << " of " << width;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Batch stats: a batch runs its lanes one after another, so what it
// reports is the sum over one-lane runs of the same colorings (peaks:
// the maximum).

std::vector<Coloring> seeded_lanes(const CsrGraph& g, const QueryGraph& q,
                                   int width, std::uint64_t seed) {
  std::vector<Coloring> lanes;
  for (int l = 0; l < width; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), seed + l);
  }
  return lanes;
}

/// Accumulation telemetry and modeled load: `batch` against the sum of
/// `solos`.
template <typename Stats>
void expect_model_sums(const Stats& batch, const std::vector<Stats>& solos) {
  AccumTelemetry accum;
  std::uint64_t ops = 0, comm = 0;
  double sim_time = 0.0;
  for (const Stats& s : solos) {
    accum.add(s.accum);
    ops += s.total_ops;
    comm += s.total_comm;
    sim_time += s.sim_time;
  }
  EXPECT_EQ(batch.accum.phases, accum.phases);
  EXPECT_EQ(batch.accum.rows, accum.rows);
  EXPECT_EQ(batch.accum.emit_bytes, accum.emit_bytes);
  EXPECT_EQ(batch.total_ops, ops);
  EXPECT_EQ(batch.total_comm, comm);
  EXPECT_DOUBLE_EQ(batch.sim_time, sim_time);
  EXPECT_GT(ops, 0u);
}

TEST(BatchEngine, SharedBatchStatsAreLaneSums) {
  const CsrGraph g = barabasi_albert(80, 4, 9);
  const QueryGraph q = q_wiki();
  ExecOptions opts;
  opts.sim_ranks = 4;
  CountingSession session(g, q, make_plan(q), opts);
  const std::vector<Coloring> lanes = seeded_lanes(g, q, 4, 1300);
  const ExecStats batch = session.count_colorful(ColoringBatch(lanes));
  std::vector<ExecStats> solos;
  std::size_t peak = 0;
  for (const Coloring& chi : lanes) {
    solos.push_back(session.count_colorful(chi));
    peak = std::max(peak, solos.back().peak_table_entries);
  }
  expect_model_sums(batch, solos);
  EXPECT_EQ(batch.peak_table_entries, peak);
}

TEST(BatchEngine, DistributedBatchStatsAreLaneSums) {
  const CsrGraph g = barabasi_albert(80, 4, 9);
  const QueryGraph q = q_wiki();
  const Plan plan = make_plan(q);
  ExecOptions opts;
  // Every off-rank delivery is duplicated, so the fault counts do not
  // depend on where in the shared fault stream a lane starts.
  opts.dist.faults.seed = 5;
  opts.dist.faults.dup_rate = 1.0;
  opts.dist.checkpoint_interval = 2;
  const std::vector<Coloring> lanes = seeded_lanes(g, q, 4, 1400);
  const DistStats batch =
      run_plan_distributed(g, plan.tree, ColoringBatch(lanes), 3, opts);
  std::vector<DistStats> solos;
  CommStats tr;
  FaultStats fs;
  for (const Coloring& chi : lanes) {
    solos.push_back(run_plan_distributed(g, plan.tree, chi, 3, opts));
    const DistStats& s = solos.back();
    tr.supersteps += s.transport.supersteps;
    tr.entries_sent += s.transport.entries_sent;
    tr.off_rank_entries += s.transport.off_rank_entries;
    tr.max_step_recv = std::max(tr.max_step_recv, s.transport.max_step_recv);
    fs.faults_injected += s.faults.faults_injected;
    fs.dups += s.faults.dups;
    fs.retransmit_bytes += s.faults.retransmit_bytes;
    fs.checkpoints_taken += s.faults.checkpoints_taken;
    fs.checkpoint_bytes += s.faults.checkpoint_bytes;
  }
  expect_model_sums(batch, solos);
  EXPECT_EQ(batch.transport.supersteps, tr.supersteps);
  EXPECT_EQ(batch.transport.entries_sent, tr.entries_sent);
  EXPECT_EQ(batch.transport.off_rank_entries, tr.off_rank_entries);
  EXPECT_EQ(batch.transport.off_rank_bytes(), tr.off_rank_bytes());
  EXPECT_EQ(batch.transport.max_step_recv, tr.max_step_recv);
  EXPECT_EQ(batch.faults.faults_injected, fs.faults_injected);
  EXPECT_EQ(batch.faults.dups, fs.dups);
  EXPECT_EQ(batch.faults.retransmit_bytes, fs.retransmit_bytes);
  EXPECT_EQ(batch.faults.checkpoints_taken, fs.checkpoints_taken);
  EXPECT_EQ(batch.faults.checkpoint_bytes, fs.checkpoint_bytes);
  EXPECT_GT(fs.dups, 0u);
  EXPECT_GT(fs.checkpoints_taken, 0u);
}

// ---------------------------------------------------------------------
// Estimator: batching is an execution detail — per-trial colorful counts
// and all derived statistics must be identical at every batch width.

TEST(BatchEstimator, BatchedTrialsEqualUnbatchedTrials) {
  const CsrGraph g = erdos_renyi(50, 220, 8);
  const QueryGraph q = q_glet2();
  EstimatorOptions base;
  base.trials = 10;
  base.seed = 77;
  const EstimatorResult solo = estimate_matches(g, q, base);
  for (const int batch : {2, 4, 8}) {
    EstimatorOptions opts = base;
    opts.batch = batch;
    const EstimatorResult r = estimate_matches(g, q, opts);
    EXPECT_EQ(r.colorful_per_trial, solo.colorful_per_trial)
        << "batch=" << batch;
    EXPECT_DOUBLE_EQ(r.matches, solo.matches) << "batch=" << batch;
    EXPECT_DOUBLE_EQ(r.cv, solo.cv) << "batch=" << batch;
  }
}

TEST(BatchEstimator, AdaptiveBatchedMatchesTrialForTrial) {
  const CsrGraph g = erdos_renyi(60, 400, 6);
  AdaptiveOptions a;
  a.target_cv = 1e9;  // trivially satisfied at the first check
  a.min_trials = 5;
  a.batch = 4;
  const AdaptiveResult r = estimate_matches_adaptive(g, q_cycle(3), a);
  EXPECT_TRUE(r.converged);
  // Batches of 4 then 4: the cv test fires at the first batch boundary
  // past min_trials.
  EXPECT_EQ(r.trials_used, 8);

  AdaptiveOptions solo = a;
  solo.batch = 1;
  const AdaptiveResult rs = estimate_matches_adaptive(g, q_cycle(3), solo);
  // Same seed sequence: the batched run's first 5 trials equal the
  // unbatched run's 5 trials.
  ASSERT_GE(r.estimate.colorful_per_trial.size(), 5u);
  for (std::size_t i = 0; i < rs.estimate.colorful_per_trial.size(); ++i) {
    EXPECT_EQ(r.estimate.colorful_per_trial[i],
              rs.estimate.colorful_per_trial[i]);
  }
}

TEST(BatchEstimator, ZeroMatchWorkloadStaysZeroAcrossLanes) {
  const EstimatorOptions opts = [] {
    EstimatorOptions o;
    o.trials = 8;
    o.batch = 8;
    return o;
  }();
  const EstimatorResult r =
      estimate_matches(path_graph(20), q_cycle(3), opts);
  EXPECT_DOUBLE_EQ(r.matches, 0.0);
  for (const Count c : r.colorful_per_trial) EXPECT_EQ(c, 0u);
}

}  // namespace
}  // namespace ccbt
