// Pinned results of both engines at 4 simulated ranks: colorful counts,
// the Section 7 load totals (total and per-rank maximum ops, modeled comm,
// simulated time) and a digest of every stored block table, for a few
// (graph, query, algorithm) configurations at 1 and 4 OpenMP threads. The
// values were recorded from the engine that walked every split's halves
// from scratch, on the Section 6 heuristic's plan (section6_plan.hpp),
// which every configuration runs. The figures (Fig 10/11) are ratios of
// these totals, so any change to how the walks are scheduled must leave
// them exactly as they are.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/decomp/plan.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "section6_plan.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ccbt {
namespace {

constexpr std::uint32_t kRanks = 4;
constexpr std::uint64_t kColorSeed = 31;

struct Golden {
  const char* graph;
  const char* query;
  Algo algo;
  Count count;
  std::uint64_t total_ops;
  std::uint64_t max_rank_ops;
  std::uint64_t total_comm;
  double sim_time;
  std::uint64_t tables;  // digest of the stored block tables
};

// clang-format off
const Golden kGolden[] = {
  {"cl", "brain1", Algo::kDB, 66, 100220, 43840, 28984, 56904, 15481281512110956771u},
  {"cl", "brain1", Algo::kPS, 66, 87485, 54215, 31315, 69195, 15481281512110956771u},
  {"cl", "brain1", Algo::kPSEven, 66, 70200, 42715, 23979, 54227, 15481281512110956771u},
  {"cl", "dros", Algo::kDB, 586, 82456, 38147, 17076, 45629, 17030186200902710415u},
  {"cl", "dros", Algo::kPS, 586, 55043, 33084, 13830, 39736, 17030186200902710415u},
  {"cl", "dros", Algo::kPSEven, 586, 55043, 33084, 13830, 39736, 17030186200902710415u},
  {"cl", "wiki", Algo::kDB, 16, 21725, 9215, 5879, 11006, 7447406520967402639u},
  {"cl", "wiki", Algo::kPS, 16, 11248, 6420, 4699, 9213, 7447406520967402639u},
  {"cl", "wiki", Algo::kPSEven, 16, 11248, 6420, 4699, 9213, 7447406520967402639u},
  {"er", "brain1", Algo::kDB, 1164, 451384, 119854, 113227, 180133, 6680015454267491751u},
  {"er", "brain1", Algo::kPS, 1164, 324185, 89633, 109111, 145686, 6680015454267491751u},
  {"er", "brain1", Algo::kPSEven, 1164, 262120, 72319, 81694, 114483, 6680015454267491751u},
  {"er", "dros", Algo::kDB, 4366, 317324, 84523, 62901, 118640, 7516895340361080325u},
  {"er", "dros", Algo::kPS, 4366, 155495, 43104, 39404, 64025, 7516895340361080325u},
  {"er", "dros", Algo::kPSEven, 4366, 155495, 43104, 39404, 64025, 7516895340361080325u},
  {"er", "wiki", Algo::kDB, 24, 47779, 12235, 13168, 19826, 13875881515463219700u},
  {"er", "wiki", Algo::kPS, 24, 24282, 6664, 10183, 11929, 13875881515463219700u},
  {"er", "wiki", Algo::kPSEven, 24, 24282, 6664, 10183, 11929, 13875881515463219700u},
};
// clang-format on

const CsrGraph& graph_named(const std::string& name) {
  static const CsrGraph er = erdos_renyi(220, 900, 5);
  static const CsrGraph cl = chung_lu_power_law(260, 1.6, 5.0, 23);
  return name == "er" ? er : cl;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i, x >>= 8) h = (h ^ (x & 0xFF)) * 1099511628211u;
  return h;
}

/// The stored tables of every non-root block, as run_plan stores them
/// (sealed kByV0), folded into one FNV-1a digest.
std::uint64_t table_digest(const CsrGraph& g, const QueryGraph& q,
                           const Coloring& chi, Algo algo) {
  const DegreeOrder order(g);
  ExecOptions opts;
  opts.algo = algo;
  const ExecContext cx{g,
                       chi,
                       order,
                       BlockPartition(g.num_vertices(), kRanks),
                       nullptr,
                       opts};
  const DecompTree tree = section6_plan(q).tree;
  TablePool pool(tree.blocks.size(), g.num_vertices());
  std::uint64_t h = 14695981039346656037u;
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    if (blk.kind == BlockKind::kSingleton) continue;
    ProjTable t = blk.kind == BlockKind::kLeafEdge
                      ? solve_leaf_edge(cx, blk, pool)
                      : solve_cycle(cx, blk, pool);
    if (static_cast<int>(i) == tree.root) break;
    pool.store(static_cast<int>(i), std::move(t));
    const ProjTable& stored = pool.get(static_cast<int>(i));
    h = fnv(h, static_cast<std::uint64_t>(stored.arity()));
    stored.for_each_entry([&](const TableEntry& e) {
      for (const VertexId v : e.key.v) h = fnv(h, v);
      h = fnv(h, e.key.sig);
      h = fnv(h, e.cnt);
    });
  }
  return h;
}

#ifdef _OPENMP
struct ThreadsGuard {
  int saved = omp_get_max_threads();
  ~ThreadsGuard() { omp_set_num_threads(saved); }
};
void set_threads(int t) { omp_set_num_threads(t); }
#else
struct ThreadsGuard {};
void set_threads(int) {}
#endif

const Golden* find_golden(const std::string& graph, const std::string& query,
                          Algo algo) {
  for (const Golden& gd : kGolden) {
    if (graph == gd.graph && query == gd.query && algo == gd.algo) return &gd;
  }
  return nullptr;
}

/// The pinned configurations.
template <typename F>
void for_each_config(F&& f) {
  for (const char* graph : {"er", "cl"}) {
    for (const char* query : {"dros", "wiki", "brain1"}) {
      for (const Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
        f(graph, query, algo);
      }
    }
  }
}

void expect_totals(const Golden& gd, Count count, std::uint64_t total_ops,
                   std::uint64_t max_rank_ops, std::uint64_t total_comm,
                   double sim_time, const std::string& what) {
  EXPECT_EQ(count, gd.count) << what;
  EXPECT_EQ(total_ops, gd.total_ops) << what;
  EXPECT_EQ(max_rank_ops, gd.max_rank_ops) << what;
  EXPECT_EQ(total_comm, gd.total_comm) << what;
  EXPECT_EQ(sim_time, gd.sim_time) << what;
}

TEST(LoadGolden, BothEnginesMatchThePinnedTotals) {
  ThreadsGuard guard;
  for (const int threads : {1, 4}) {
    set_threads(threads);
    for_each_config([&](const char* graph, const char* query, Algo algo) {
      const CsrGraph& g = graph_named(graph);
      const QueryGraph q = named_query(query);
      const Coloring chi(g.num_vertices(), q.num_nodes(), kColorSeed);
      ExecOptions opts;
      opts.algo = algo;
      opts.sim_ranks = kRanks;
      const Plan plan = section6_plan(q);
      const ExecStats shared =
          CountingSession(g, q, plan, opts).count_colorful(chi);
      const DistStats dist =
          run_plan_distributed(g, plan.tree, chi, kRanks, opts);
      const std::string what = std::string(graph) + " " + query + " " +
                               algo_name(algo) + " threads " +
                               std::to_string(threads);
      const Golden* gd = find_golden(graph, query, algo);
      ASSERT_NE(gd, nullptr) << what;
      expect_totals(*gd, shared.colorful, shared.total_ops,
                    shared.max_rank_ops, shared.total_comm, shared.sim_time,
                    "shared " + what);
      expect_totals(*gd, dist.colorful, dist.total_ops, dist.max_rank_ops,
                    dist.total_comm, dist.sim_time, "dist " + what);
    });
  }
}

TEST(LoadGolden, StoredBlockTablesMatchThePinnedDigests) {
  ThreadsGuard guard;
  for (const int threads : {1, 4}) {
    set_threads(threads);
    for_each_config([&](const char* graph, const char* query, Algo algo) {
      const Golden* gd = find_golden(graph, query, algo);
      ASSERT_NE(gd, nullptr) << graph << " " << query;
      const CsrGraph& g = graph_named(graph);
      const QueryGraph q = named_query(query);
      const Coloring chi(g.num_vertices(), q.num_nodes(), kColorSeed);
      EXPECT_EQ(table_digest(g, q, chi, algo), gd->tables)
          << graph << " " << query << " " << algo_name(algo) << " threads "
          << threads;
    });
  }
}

}  // namespace
}  // namespace ccbt
