// Distributed engine cross-validation: the virtual-MPI run must produce
// exactly the shared-memory engine's colorful count AND its modeled load
// (total/max/avg ops, sim_time, modeled comm), for every algorithm and
// rank count — plus transport-layer invariants the model cannot see.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/dist/dist_primitives.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/query/random_tw2.hpp"
#include "ccbt/util/error.hpp"
#include "unique_rows.hpp"

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

/// `width` lanes: the shared engine's born-sorted tables and the
/// distributed engine's shards must report the same per-lane counts and
/// charge the same load, rank for rank.
void expect_batched_parity(const CsrGraph& g, const QueryGraph& q,
                           std::uint32_t ranks, std::uint64_t color_seed,
                           int width) {
  std::vector<Coloring> lanes;
  for (int l = 0; l < width; ++l) {
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
  const std::string label = q.name() + " R=" + std::to_string(ranks) +
                            " B=" + std::to_string(width);
  EXPECT_EQ(dist.colorful_lane, shared.colorful_lane) << label;
  EXPECT_EQ(dist.total_ops, shared.total_ops) << label;
  EXPECT_EQ(dist.max_rank_ops, shared.max_rank_ops) << label;
  EXPECT_DOUBLE_EQ(dist.avg_rank_ops, shared.avg_rank_ops) << label;
  EXPECT_EQ(dist.total_comm, shared.total_comm) << label;
  EXPECT_DOUBLE_EQ(dist.sim_time, shared.sim_time) << label;
  // Both engines close the same frontier buckets from the same rows.
  EXPECT_EQ(dist.accum.phases, shared.accum.phases) << label;
  EXPECT_EQ(dist.accum.rows, shared.accum.rows) << label;
  EXPECT_EQ(dist.accum.emit_bytes, shared.accum.emit_bytes) << label;
}

TEST(DistEngine, BatchedLoadParityOnPendantAndCycleQueries) {
  // dros and ecoli2 end in pendant nodes, so their node joins read leaf
  // tables that each rank sums from the aggregate rows routed to it.
  const CsrGraph er = erdos_renyi(300, 1500, 5);
  const CsrGraph cl = chung_lu_power_law(300, 1.5, 6.0, 23);
  for (const char* name : {"dros", "ecoli2", "brain1", "wiki"}) {
    const QueryGraph q = named_query(name);
    for (const std::uint32_t ranks : {2u, 4u, 7u}) {
      for (const int width : {1, 8}) {
        expect_batched_parity(er, q, ranks, 900, width);
        expect_batched_parity(cl, q, ranks, 910, width);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Per-phase table parity: the plan's walks run through both engines'
// primitives at once — SharedPath over the shared pool, and the
// production DistPath (halo supersteps, replicas and rank builds) over a
// DistPool holding the same child tables, sharded home slot 0. After
// every phase, shard r must hold exactly the shared table's buckets
// [begin(r), end(r)), row for row and in order.

/// One phase's table in both engines.
struct Both {
  ProjTable shared;
  DistTable dist;
};

/// The walks' primitives (see apply_op), each run by both engines and
/// checked.
class PhaseParity {
 public:
  PhaseParity(const ExecContext& cx, std::uint32_t ranks,
              TablePool& pool, std::size_t blocks)
      : cx_(cx),
        comm_(ranks),
        dx_{cx, comm_, kBudget},
        dpool_(blocks, cx.g.num_vertices()),
        shared_{cx, pool},
        dist_{dx_, dpool_} {}

  std::string label;
  int phases() const { return phases_; }

  Both init_graph(const ExtendOpts& o) {
    return checked({shared_.init_graph(o), dist_.init_graph(o)}, "init");
  }
  Both init_child(int child, bool transposed, const ExtendOpts& o) {
    return checked({shared_.init_child(child, transposed, o),
                    dist_.init_child(child, transposed, o)},
                   "init");
  }
  Both node_join(Both& t, int child, int slot) {
    return checked({shared_.node_join(t.shared, child, slot),
                    dist_.node_join(t.dist, child, slot)},
                   "node_join");
  }
  Both extend_graph(Both& t, const ExtendOpts& o) {
    return checked(
        {shared_.extend_graph(t.shared, o), dist_.extend_graph(t.dist, o)},
        "extend");
  }
  Both extend_child(Both& t, int child, bool transposed,
                       const ExtendOpts& o) {
    return checked({shared_.extend_child(t.shared, child, transposed, o),
                    dist_.extend_child(t.dist, child, transposed, o)},
                   "extend");
  }

  /// Store a solved shared table in the DistPool too, sharded by its
  /// slot-0 owner.
  void store(int block, const ProjTable& t) {
    t.for_each_entry([&](const TableEntry& e) {
      comm_.send(0, cx_.owner(e.key.v[0]), e);
    });
    comm_.exchange();
    dpool_.store(block, DistTable::collect(t.arity(), 0, comm_, kBudget,
                                           cx_.g.num_vertices()));
  }

 private:
  static constexpr std::size_t kBudget = 80'000'000;

  std::uint32_t ranks() const { return comm_.num_ranks(); }

  Both checked(Both t, const char* phase) {
    expect_same(t.shared, t.dist, label + " " + phase);
    return t;
  }

  /// Shard r equals the shared table's buckets of rank r's vertices.
  void expect_same(const ProjTable& shared, const DistTable& dist,
                   const std::string& what) {
    ++phases_;
    ASSERT_EQ(dist.num_shards(), ranks()) << what;
    EXPECT_EQ(dist.size(), shared.size()) << what;
    const std::vector<TableEntry> shared_rows = entries_of(shared);
    for (std::uint32_t r = 0; r < ranks(); ++r) {
      const ProjTable& shard = dist.shard(r);
      const std::vector<TableEntry> shard_rows = entries_of(shard);
      std::size_t i = 0;
      for (VertexId v = cx_.part.begin(r); v < cx_.part.end(r); ++v) {
        const auto [lo, hi] = shared.group_span(1, v);
        const auto [dlo, dhi] = shard.group_span(1, v);
        ASSERT_EQ(dhi - dlo, hi - lo) << what << " rank " << r << " v " << v;
        for (std::size_t j = lo; j < hi; ++j, ++i) {
          const TableEntry& want = shared_rows.at(j);
          const TableEntry& got = shard_rows.at(i);
          ASSERT_EQ(got.key, want.key) << what << " rank " << r;
          ASSERT_EQ(got.cnt, want.cnt) << what << " rank " << r;
        }
      }
      EXPECT_EQ(i, shard.size()) << what << " rank " << r;
    }
  }

  const ExecContext& cx_;
  VirtualComm comm_;
  dist::Dx dx_;
  dist::DistPool dpool_;
  SharedPath shared_;
  dist::DistPath dist_;
  int phases_ = 0;
};

/// Walk the plan block by block as run_plan does, checking every path
/// phase of every leaf-edge block and every split of every cycle block.
void expect_phase_parity(const CsrGraph& g, const QueryGraph& q,
                         std::uint32_t ranks, std::uint64_t color_seed) {
  const Coloring chi(g.num_vertices(), q.num_nodes(), color_seed);
  ExecOptions opts;
  opts.algo = Algo::kDB;
  const DegreeOrder order(g);
  const ExecContext cx{g,
                       chi,
                       order,
                       BlockPartition(g.num_vertices(), ranks),
                       nullptr,
                       opts};
  const DecompTree tree = make_plan(q).tree;
  TablePool pool(tree.blocks.size(), g.num_vertices());
  PhaseParity pp(cx, ranks, pool, tree.blocks.size());
  const std::string label = q.name() + " R=" + std::to_string(ranks);
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    if (blk.kind == BlockKind::kSingleton) continue;
    ProjTable table;
    if (blk.kind == BlockKind::kLeafEdge) {
      pp.label = label + " leaf";
      (void)walk_leaf_edge(pp, blk);
      table = solve_leaf_edge(cx, blk, pool);
    } else {
      for (const SplitPlan& plan : splits_for(blk, opts.algo)) {
        pp.label = label + " plus";
        (void)run_path(pp, walk_path(blk, plan.plus));
        pp.label = label + " minus";
        (void)run_path(pp, walk_path(blk, plan.minus));
      }
      table = solve_cycle(cx, blk, pool);
    }
    if (static_cast<int>(i) != tree.root) {
      pool.store(static_cast<int>(i), std::move(table));
      pp.store(static_cast<int>(i), pool.get(static_cast<int>(i)));
    }
  }
  EXPECT_GT(pp.phases(), 0) << label;
}

TEST(DistEngine, PathShardsEqualSharedBucketsPhaseByPhase) {
  const CsrGraph er = erdos_renyi(300, 1500, 5);
  const CsrGraph cl = chung_lu_power_law(300, 1.5, 6.0, 23);
  for (const char* name : {"dros", "ecoli2", "brain1", "wiki"}) {
    const QueryGraph q = named_query(name);
    for (const std::uint32_t ranks : {2u, 7u}) {
      expect_phase_parity(er, q, ranks, 900);
      expect_phase_parity(cl, q, ranks, 910);
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

TEST(DistEngine, PeakTableEntriesMatchSharedEngine) {
  // The most entries one block's solve holds at once — walk tables plus
  // cycle sink, or a leaf table — summed over the ranks, equals the shared
  // engine's peak, at one thread and at four (the threaded bucket builds
  // and end-bucket loops). path5 is a tree: its root is a leaf block,
  // whose summed rows are the peak.
  const CsrGraph g = erdos_renyi(1500, 6000, 57);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  const std::vector<int> thread_counts{1, 4};
#else
  const std::vector<int> thread_counts{1};
#endif
  for (const char* name : {"dros", "brain1", "path5"}) {
    const QueryGraph q = named_query(name);
    const Coloring chi(g.num_vertices(), q.num_nodes(), 58);
    for (const int threads : thread_counts) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      const std::string label =
          std::string(name) + " threads " + std::to_string(threads);
      const ExecStats shared = shared_run(g, q, chi, Algo::kDB, 4);
      const DistStats dist = dist_run(g, q, chi, Algo::kDB, 4);
      EXPECT_EQ(dist.colorful, shared.colorful) << label;
      EXPECT_GT(shared.peak_table_entries, 0u) << label;
      EXPECT_EQ(dist.peak_table_entries, shared.peak_table_entries) << label;
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

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

/// A one-coloring context over `ranks` virtual ranks of `g`, without a
/// load model.
struct DistFixture {
  Coloring chi;
  DegreeOrder order;
  ExecContext cx;
  VirtualComm comm;
  dist::Dx dx;
  dist::DistPool pool;

  DistFixture(const CsrGraph& g, std::uint32_t ranks, std::size_t budget)
      : chi(g.num_vertices(), 5, 60),
        order(g),
        cx{g, chi, order, BlockPartition(g.num_vertices(), ranks), nullptr,
           {}},
        comm(ranks),
        dx{cx, comm, budget},
        pool(0, g.num_vertices()) {}

  dist::DistPath path() { return {dx, pool}; }
};

/// One extend's halo: bucket x leaves owner(x) once for every other rank
/// owning a neighbour of x, and nothing else crosses the transport.
void expect_extend_halo(const CsrGraph& g, std::uint32_t ranks) {
  DistFixture f(g, ranks, 80'000'000);
  dist::DistPath ops = f.path();
  DistTable path = ops.init_graph(ExtendOpts{});
  const BlockPartition& part = f.cx.part;
  std::uint64_t want = 0;
  for (VertexId x = 0; x < g.num_vertices(); ++x) {
    const auto [lo, hi] = path.shard(part.owner(x)).group_span(1, x);
    std::vector<std::uint32_t> readers;
    for (VertexId w : g.neighbors(x)) {
      if (part.owner(w) != part.owner(x)) readers.push_back(part.owner(w));
    }
    std::sort(readers.begin(), readers.end());
    readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
    want += (hi - lo) * readers.size();
  }
  const CommStats before = f.comm.stats();
  (void)ops.extend_graph(path, ExtendOpts{});
  const CommStats after = f.comm.stats();
  const std::string label = "R=" + std::to_string(ranks);
  EXPECT_GT(want, 0u) << label;
  EXPECT_EQ(after.off_rank_entries - before.off_rank_entries, want) << label;
  EXPECT_EQ(after.entries_sent - before.entries_sent, want) << label;
  EXPECT_EQ(after.supersteps - before.supersteps, 1u) << label;
}

TEST(DistEngine, ExtendSendsEachBucketOncePerReadingRank) {
  const CsrGraph g = chung_lu_power_law(400, 1.6, 6.0, 13);
  for (const std::uint32_t ranks : {4u, 7u}) expect_extend_halo(g, ranks);
}

TEST(DistEngine, PathBudgetBoundsRowsAcrossRanks) {
  // Every shard fits the budget; their total does not.
  const CsrGraph g = erdos_renyi(120, 400, 19);
  std::size_t total = 0, largest = 0;
  {
    DistFixture f(g, 4, 80'000'000);
    const DistTable t = f.path().init_graph(ExtendOpts{});
    total = t.size();
    for (std::uint32_t r = 0; r < 4; ++r) {
      largest = std::max(largest, t.shard(r).size());
    }
  }
  ASSERT_LT(largest, total - 1);
  DistFixture fits(g, 4, total);
  EXPECT_EQ(fits.path().init_graph(ExtendOpts{}).size(), total);
  DistFixture over(g, 4, total - 1);
  EXPECT_THROW((void)over.path().init_graph(ExtendOpts{}), BudgetExceeded);
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

TEST(DistEngine, BudgetPastU32OffsetLimitRejected) {
  const CsrGraph g = erdos_renyi(30, 60, 18);
  const QueryGraph q = q_cycle(4);
  const Coloring chi(g.num_vertices(), 4, 57);
  ExecOptions opts;
  opts.max_table_entries = std::size_t{0xFFFFFFFFu} + 1;
  EXPECT_THROW(run_plan_distributed(g, make_plan(q).tree, chi, 2, opts),
               BudgetExceeded);
  opts.max_table_entries = 0xFFFFFFFFu;
  EXPECT_EQ(run_plan_distributed(g, make_plan(q).tree, chi, 2, opts).colorful,
            count_colorful_exact(g, q, chi));
}

TEST(DistEngine, MissingRootRejected) {
  const CsrGraph g = erdos_renyi(10, 15, 17);
  const Coloring chi(g.num_vertices(), 3, 56);
  DecompTree empty;
  EXPECT_THROW(run_plan_distributed(g, empty, chi, 2, {}), Error);
}

}  // namespace
}  // namespace ccbt
