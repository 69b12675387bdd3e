// Differential fuzz across the whole engine matrix: random (graph,
// catalog query, algorithm, batch width, layout options, fault schedule)
// configs run through the shared-memory engine batched and lane by lane,
// and through the distributed engine — every route must report each
// lane's colorful count. The baseline is count_colorful_exact
// (core/exact.cpp), a backtracking enumerator that shares no code with
// either engine: no plan, decomposition, signature join or table. A
// divergence localizes to whichever route disagrees with it.
//
// The sweep is seeded: CCBT_DIFF_SEED offsets the whole configuration
// stream and CCBT_DIFF_ITERS scales the number of configs, so CI can run
// a different slice per job (the sanitizer job sweeps a few seeds) while
// local failures stay reproducible — the failure message carries the
// config's derivation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

/// Any query of the catalog (catalog_names), so the fuzz reaches the
/// edge-child final steps and tracked slots of brain1, brain2, ecoli1 and
/// ecoli2 as well as the plain cycles, paths and trees.
QueryGraph pick_query(std::uint64_t die) {
  const std::vector<std::string> names = catalog_names();
  return named_query(names[die % names.size()]);
}

struct DiffConfig {
  std::uint64_t seed = 0;
  VertexId n = 0;
  std::size_t m = 0;
  int width = 0;
  std::uint32_t ranks = 0;
  bool faulty = false;
  ExecOptions opts;

  std::string describe() const {
    return "seed=" + std::to_string(seed) + " algo=" + algo_name(opts.algo) +
           " n=" + std::to_string(n) +
           " m=" + std::to_string(m) + " B=" + std::to_string(width) +
           " ranks=" + std::to_string(ranks) +
           " compact=" + std::to_string(opts.compact_accum) +
           " lane_compress=" + std::to_string(opts.lane_compress) +
           " faulty=" + std::to_string(faulty);
  }
};

DiffConfig draw_config(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  DiffConfig c;
  c.seed = seed;
  c.n = static_cast<VertexId>(24 + rng.below(36));
  c.m = c.n + rng.below(3 * c.n);
  c.width = static_cast<int>(2 + rng.below(kMaxBatchLanes - 1));
  c.ranks = static_cast<std::uint32_t>(2 + rng.below(4));
  constexpr Algo kAlgos[] = {Algo::kPS, Algo::kPSEven, Algo::kDB};
  c.opts.algo = kAlgos[rng.below(3)];
  c.opts.compact_accum = rng.below(2) == 0;
  c.opts.lane_compress = rng.below(4) != 0;  // mostly on (the default)
  c.faulty = rng.below(2) == 0;
  if (c.faulty) {
    c.opts.dist.faults.seed = seed * 31 + 7;
    c.opts.dist.faults.drop_rate = 0.01;
    c.opts.dist.faults.dup_rate = 0.005;
    c.opts.dist.faults.delay_rate = 0.005;
    c.opts.dist.faults.alloc_fail_rate = 0.01;
    c.opts.dist.max_retries = 8;
    // The lanes of a batch share one replay budget: 8 per coloring, as in
    // test_fault_injection, since a large query (brain3 under DB) can
    // draw more than 8 allocation failures over an 8-coloring batch.
    c.opts.dist.max_replays = 8 * static_cast<std::uint32_t>(c.width);
    c.opts.dist.checkpoint_interval = 2 + rng.below(3);
  }
  return c;
}

TEST(DifferentialEngines, RandomConfigsAgreeAcrossEnginesAndWidths) {
  const std::uint64_t base = env_u64("CCBT_DIFF_SEED", 0);
  const std::uint64_t iters = env_u64("CCBT_DIFF_ITERS", 6);
  for (std::uint64_t it = 0; it < iters; ++it) {
    const DiffConfig c = draw_config(base * 1000 + it);
    SCOPED_TRACE(c.describe());
    const CsrGraph g = erdos_renyi(c.n, c.m, c.seed * 13 + 5);
    Rng qrng(c.seed * 17 + 3);
    const QueryGraph q = pick_query(qrng.below(1000));
    SCOPED_TRACE(q.name());
    const Plan plan = make_plan(q);

    std::vector<Coloring> lanes;
    for (int l = 0; l < c.width; ++l) {
      lanes.emplace_back(g.num_vertices(), q.num_nodes(),
                         c.seed * 100 + 40 + l);
    }
    const ColoringBatch batch{std::span<const Coloring>(lanes)};

    // Baseline: each lane's colorful matches, enumerated exactly.
    std::vector<Count> expect;
    for (int l = 0; l < c.width; ++l) {
      expect.push_back(count_colorful_exact(g, q, lanes[l]));
    }

    // Shared-memory engine under the drawn options: each lane alone at
    // B = 1, then all lanes batched.
    CountingSession session(g, q, plan, c.opts);
    for (int l = 0; l < c.width; ++l) {
      EXPECT_EQ(session.count_colorful(lanes[l]).colorful, expect[l])
          << "B=1 lane " << l;
    }
    const ExecStats shared = session.count_colorful(batch);
    for (int l = 0; l < c.width; ++l) {
      EXPECT_EQ(shared.colorful_lane[l], expect[l]) << "shared lane " << l;
    }

    // Distributed engine, same options (faults included: recovery must
    // restore the fault-free counts, not merely converge).
    const DistStats dist =
        run_plan_distributed(g, plan.tree, batch, c.ranks, c.opts);
    for (int l = 0; l < c.width; ++l) {
      EXPECT_EQ(dist.colorful_lane[l], expect[l]) << "dist lane " << l;
    }
  }
}

}  // namespace
}  // namespace ccbt
