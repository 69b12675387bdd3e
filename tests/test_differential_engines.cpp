// Differential fuzz across the whole engine matrix: random (graph,
// query, batch width, layout options, fault schedule) configs run through
// the shared-memory engine batched and lane-by-lane, and through the
// distributed engine — every route must report identical per-lane
// colorful counts. A divergence localizes to whichever leg disagrees with
// the B = 1 shared baseline, which exercises none of the batched layouts,
// born-sorted bucket builds, packed merges or transport code.
//
// The sweep is seeded: CCBT_DIFF_SEED offsets the whole configuration
// stream and CCBT_DIFF_ITERS scales the number of configs, so CI can run
// a different slice per job (the sanitizer job sweeps a few seeds under
// CCBT_FORCE_SCALAR_LANES=1) while local failures stay reproducible —
// the failure message carries the config's derivation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "ccbt/core/color_coding.hpp"
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

QueryGraph pick_query(std::uint64_t die) {
  switch (die % 8) {
    case 0: return q_glet1();
    case 1: return q_glet2();
    case 2: return q_wiki();
    case 3: return q_youtube();
    case 4: return q_dros();
    case 5: return q_cycle(4 + static_cast<int>(die / 8 % 3));  // C4..C6
    case 6: return q_path(3 + static_cast<int>(die / 8 % 3));
    default: return q_cycle(5);
  }
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
    return "seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
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
  const int widths[] = {2, 4, 8};
  c.width = widths[rng.below(3)];
  c.ranks = static_cast<std::uint32_t>(2 + rng.below(4));
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
    c.opts.dist.max_replays = 8;
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
    const QueryGraph q = pick_query(qrng.below(24));
    SCOPED_TRACE(q.name());
    const Plan plan = make_plan(q);

    std::vector<Coloring> lanes;
    for (int l = 0; l < c.width; ++l) {
      lanes.emplace_back(g.num_vertices(), q.num_nodes(),
                         c.seed * 100 + 40 + l);
    }
    const ColoringBatch batch{std::span<const Coloring>(lanes)};

    // Baseline: each lane alone through the scalar shared engine with
    // default options (no batched layout or packed-merge code runs).
    CountingSession baseline(g, q, plan, ExecOptions{});
    std::vector<Count> expect;
    for (int l = 0; l < c.width; ++l) {
      expect.push_back(baseline.count_colorful(lanes[l]).colorful);
    }

    // Batched shared-memory engine under the drawn options.
    CountingSession session(g, q, plan, c.opts);
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
