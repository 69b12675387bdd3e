// The fused cycle-split step, extend_and_merge, against the sequence it
// replaces: the minus walk's last extend (extend_with_graph or
// extend_with_child) followed by merge_halves. Both must leave the same
// rows in the cycle sink and charge the Section 7 load model identically
// (total and per-rank ops, comm, simulated time, accumulation phases),
// split by split, for every catalog query under PS, PS-EVEN and DB.
// Without a load model the fused step drops a prefix row whose anchor has
// no plus group before the extend's filters, so the catalog also runs
// with no model, and with plus tables thinned to one anchor per end,
// where almost every row misses. The epoch-stamped anchor index must
// never read what an earlier call left, and the sink is the one thing the
// fused step bounds by the budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ccbt/decomp/plan.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "unique_rows.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ccbt {
namespace {

std::vector<TableEntry> sink_rows(const FlatRows& m) {
  std::vector<TableEntry> out;
  m.for_each_dense([&](const TableEntry& e) { out.push_back(e); });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.key.v, a.key.sig) < std::tie(b.key.v, b.key.sig);
  });
  return out;
}

void expect_same_rows(const FlatRows& got, const FlatRows& want,
                      const std::string& what) {
  const std::vector<TableEntry> g = sink_rows(got);
  const std::vector<TableEntry> w = sink_rows(want);
  ASSERT_EQ(g.size(), w.size()) << what;
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(g[i].key, w[i].key) << what << " row " << i;
    ASSERT_EQ(g[i].cnt, w[i].cnt) << what << " row " << i;
  }
}

/// One way of finishing the splits of a block: its own load model,
/// accumulation telemetry and cycle sink.
struct Side {
  LoadModel load;
  AccumTelemetry accum;
  ExecContext cx;
  FlatRows sink;

  Side(const ExecContext& base, std::uint32_t ranks)
      : load(ranks), cx(base), sink(base.key_layout()) {
    cx.load = &load;
    cx.accum = &accum;
  }
};

/// The model charges (when the fused side has a model) and the
/// accumulation phases.
void expect_same_model(const Side& fused, const Side& ref,
                       const std::string& what) {
  EXPECT_EQ(fused.accum.phases, ref.accum.phases) << what;
  if (fused.cx.load == nullptr) return;
  EXPECT_EQ(fused.load.total_ops(), ref.load.total_ops()) << what;
  EXPECT_EQ(fused.load.max_rank_ops(), ref.load.max_rank_ops()) << what;
  EXPECT_EQ(fused.load.rank_ops(), ref.load.rank_ops()) << what;
  EXPECT_EQ(fused.load.total_comm(), ref.load.total_comm()) << what;
  EXPECT_EQ(fused.load.sim_time(), ref.load.sim_time()) << what;
}

/// `plus` with only the rows of the lowest anchor in each end bucket, born
/// sorted over the frontiers of an n-vertex graph.
ProjTable one_anchor_per_end(const ProjTable& plus, VertexId n) {
  std::map<VertexId, VertexId> anchor;  // end -> lowest anchor
  plus.for_each_entry([&](const TableEntry& e) {
    const auto [it, fresh] = anchor.try_emplace(e.key.v[1], e.key.v[0]);
    if (!fresh) it->second = std::min(it->second, e.key.v[0]);
  });
  std::vector<TableEntry> rows;
  plus.for_each_entry([&](const TableEntry& e) {
    if (anchor.at(e.key.v[1]) == e.key.v[0]) rows.push_back(e);
  });
  return path_table(plus.arity(), rows, n);
}

/// How the fused side of expect_fused_parity runs.
struct Variant {
  bool model = true;         // the fused side charges a load model
  bool sparse_plus = false;  // both sides merge one_anchor_per_end(plus)
};

/// Walk q's plan block by block as run_plan does, each cycle block through
/// its walk schedule. Every split ends both ways from the same plus table
/// and minus prefix, and the two sides are compared after each split — so
/// DB's L splits of one block are consecutive fused calls over the same
/// end vertices. The
/// fused side's table is what the pool stores. Returns the fused splits.
int expect_fused_parity(const CsrGraph& g, const QueryGraph& q, Algo algo,
                        std::uint64_t color_seed, Variant variant = {}) {
  constexpr std::uint32_t kRanks = 5;
  const Coloring chi(g.num_vertices(), q.num_nodes(), color_seed);
  const DegreeOrder order(g);
  ExecOptions opts;
  opts.algo = algo;
  const ExecContext cx{g,
                       chi,
                       order,
                       BlockPartition(g.num_vertices(), kRanks),
                       nullptr,
                       opts};
  const DecompTree tree = make_plan(q).tree;
  TablePool pool(tree.blocks.size(), g.num_vertices());
  SharedPath build{cx, pool};
  const std::string label = q.name() + " " + algo_name(algo);
  int fused_splits = 0;
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    if (blk.kind == BlockKind::kSingleton) continue;
    ProjTable table;
    if (blk.kind == BlockKind::kLeafEdge) {
      table = solve_leaf_edge(cx, blk, pool);
    } else {
      Side fused(cx, kRanks), ref(cx, kRanks);
      if (!variant.model) fused.cx.load = nullptr;
      SharedPath ref_ops{ref.cx, pool};
      run_walks(
          build, schedule_walks(blk, algo), nullptr,
          [&](const WalkSchedule::Split& s, ProjTable& walk_plus,
              ProjTable& prefix) {
            const std::string what = label + " block " + std::to_string(i) +
                                     " split " + std::to_string(s.index);
            ProjTable thin;
            if (variant.sparse_plus) {
              thin = one_anchor_per_end(walk_plus, g.num_vertices());
            }
            ProjTable& plus = variant.sparse_plus ? thin : walk_plus;
            ProjTable ref_plus = plus;
            if (!s.fused) {
              ProjTable minus = prefix;
              merge_halves(fused.cx, plus, prefix, s.merge, fused.sink);
              merge_halves(ref.cx, ref_plus, minus, s.merge, ref.sink);
              return fused.sink.size();
            }
            ++fused_splits;
            const PathOp& last = *s.fused;
            ProjTable ref_prefix = prefix;
            ProjTable minus =
                last.child < 0
                    ? ref_ops.extend_graph(ref_prefix, last.opts)
                    : ref_ops.extend_child(ref_prefix, last.child,
                                           last.transposed, last.opts);
            merge_halves(ref.cx, ref_plus, minus, s.merge, ref.sink);
            const ProjTable* child =
                last.child < 0 ? nullptr
                               : &pool.oriented(last.child, !last.transposed);
            (void)extend_and_merge(fused.cx, prefix, child, last.opts, plus,
                                   s.merge, fused.sink);
            expect_same_rows(fused.sink, ref.sink, what);
            expect_same_model(fused, ref, what);
            return fused.sink.size();
          });
      table = ProjTable::from_sink(blk.boundary_count(),
                                   std::move(fused.sink), g.num_vertices());
    }
    if (static_cast<int>(i) != tree.root) {
      pool.store(static_cast<int>(i), std::move(table));
    }
  }
  return fused_splits;
}

#ifdef _OPENMP
/// Restore the OpenMP team size however a test exits.
struct ThreadsGuard {
  int saved = omp_get_max_threads();
  ~ThreadsGuard() { omp_set_num_threads(saved); }
};

void set_threads(int t) { omp_set_num_threads(t); }
#else
struct ThreadsGuard {};
void set_threads(int) {}
#endif

TEST(ExtendAndMerge, SplitsMatchExtendPlusMergeOverTheCatalog) {
  // Both sides charge a model, then the fused side runs without one, so
  // rows whose anchor misses are dropped unfiltered. At one thread, sparse
  // plus tables make almost every row miss, with and without a model
  // (SparsePlusMatchesWithAndWithoutModel runs them at four).
  ThreadsGuard guard;
  const CsrGraph er = erdos_renyi(60, 150, 41);
  const CsrGraph cl = chung_lu_power_law(60, 1.6, 5.0, 43);
  int fused = 0;
  for (const int threads : {1, 4}) {
    set_threads(threads);
    std::vector<Variant> variants = {{true, false}, {false, false}};
    if (threads == 1) {
      variants.insert(variants.end(), {{false, true}, {true, true}});
    }
    for (const std::string& name : catalog_names()) {
      const QueryGraph q = named_query(name);
      for (const Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
        for (const Variant v : variants) {
          SCOPED_TRACE(name + " " + algo_name(algo) + " threads " +
                       std::to_string(threads) + " model " +
                       std::to_string(v.model) + " sparse plus " +
                       std::to_string(v.sparse_plus));
          fused += expect_fused_parity(er, q, algo, 700, v);
          fused += expect_fused_parity(cl, q, algo, 710, v);
        }
      }
    }
  }
  EXPECT_GT(fused, 0);
}

TEST(ExtendAndMerge, ThreadedSplitsMatchExtendPlusMerge) {
  // Large enough that the fused step and the merge split their end
  // vertices across threads.
  ThreadsGuard guard;
  const CsrGraph er = erdos_renyi(1500, 6000, 47);
  const CsrGraph cl = chung_lu_power_law(1500, 1.6, 6.0, 49);
  for (const int threads : {1, 4}) {
    set_threads(threads);
    for (const char* name : {"dros", "wiki", "brain1", "ecoli2"}) {
      const QueryGraph q = named_query(name);
      for (const Algo algo : {Algo::kPSEven, Algo::kDB}) {
        SCOPED_TRACE(std::string(name) + " " + algo_name(algo) +
                     " threads " + std::to_string(threads));
        EXPECT_GT(expect_fused_parity(er, q, algo, 720), 0);
        EXPECT_GT(expect_fused_parity(cl, q, algo, 730), 0);
      }
    }
  }
}

/// A context over g without a load model.
struct Fixture {
  const CsrGraph& g;
  Coloring chi;
  DegreeOrder order;
  ExecOptions opts;

  Fixture(const CsrGraph& graph, int colors, std::uint64_t seed)
      : g(graph), chi(graph.num_vertices(), colors, seed), order(graph) {}

  ExecContext cx() const {
    return {g, chi, order, BlockPartition(g.num_vertices(), 4), nullptr, opts};
  }
};

TEST(ExtendAndMerge, ConsecutiveCallsReadNoStaleAnchorIndex) {
  // Plus bucket v of `high` holds only the anchors u ≻ v of bucket v of
  // `all`. A second call that read the anchor entries the first call
  // left for bucket v would join anchors its plus bucket does not have.
  // Such a minus row (u, v) needs the triangle u-x-v, so the graph is
  // dense.
  ThreadsGuard guard;
  const CsrGraph g = erdos_renyi(300, 9000, 51);
  const Fixture f(g, 5, 52);
  const ExecContext cx = f.cx();
  const ProjTable prefix = init_path_from_graph(cx, ExtendOpts{});
  const ProjTable all = init_path_from_graph(cx, ExtendOpts{});
  const ProjTable high = init_path_from_graph(cx, ExtendOpts{-1, true});
  ASSERT_LT(high.size(), all.size());
  MergeSpec spec;
  spec.out_arity = 1;
  spec.out[0] = {0, 0};
  for (const int threads : {1, 4}) {
    set_threads(threads);
    for (const bool high_second : {true, false}) {
      const ProjTable& first_plus = high_second ? all : high;
      const ProjTable& second_plus = high_second ? high : all;
      const std::string what = "threads " + std::to_string(threads) +
                               (high_second ? " all then high"
                                            : " high then all");
      FlatRows first(cx.key_layout()), second(cx.key_layout()),
          want(cx.key_layout());
      ProjTable p1 = prefix, q1 = first_plus;
      (void)extend_and_merge(cx, p1, nullptr, ExtendOpts{}, q1, spec, first);
      ProjTable p2 = prefix, q2 = second_plus;
      (void)extend_and_merge(cx, p2, nullptr, ExtendOpts{}, q2, spec, second);
      ProjTable p3 = prefix;
      ProjTable minus = extend_with_graph(cx, p3, ExtendOpts{});
      ProjTable q3 = second_plus;
      merge_halves(cx, q3, minus, spec, want);
      ASSERT_GT(want.size(), 0u) << what;
      expect_same_rows(second, want, what);
    }
  }
}

TEST(ExtendAndMerge, SparsePlusMatchesWithAndWithoutModel) {
  // Four-cycles u-a-x-v-u: prefix rows (u, x) of two edges, extended over
  // the edge x-v into minus rows (u, v) and merged with the edge (u, v).
  // Each plus bucket keeps one anchor, so almost every prefix row the
  // fused step visits misses it.
  ThreadsGuard guard;
  constexpr std::uint32_t kRanks = 5;
  const CsrGraph g = chung_lu_power_law(1500, 1.6, 8.0, 57);
  const Fixture f(g, 5, 58);
  const ExecContext base = f.cx();
  ProjTable edges = init_path_from_graph(base, ExtendOpts{});
  const ProjTable prefix = extend_with_graph(base, edges, ExtendOpts{});
  const ProjTable plus = one_anchor_per_end(edges, g.num_vertices());
  std::size_t visits = 0, misses = 0;
  std::vector<TableEntry> pscratch, xscratch;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto pv = plus.group_expanded(1, v, pscratch);
    for (const VertexId x : g.neighbors(v)) {
      for (const TableEntry& r : prefix.group_expanded(1, x, xscratch)) {
        ++visits;
        if (pv.empty() || r.key.v[0] != pv.front().key.v[0]) ++misses;
      }
    }
  }
  ASSERT_GT(misses, visits * 95 / 100) << misses << " of " << visits;
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {0, 1};
  for (const int threads : {1, 4}) {
    set_threads(threads);
    for (const bool model : {true, false}) {
      const std::string what = "threads " + std::to_string(threads) +
                               " model " + std::to_string(model);
      Side fused(base, kRanks), ref(base, kRanks);
      if (!model) fused.cx.load = nullptr;
      ProjTable fp = prefix, fq = plus;
      (void)extend_and_merge(fused.cx, fp, nullptr, ExtendOpts{}, fq, spec,
                             fused.sink);
      ProjTable rp = prefix, rq = plus;
      ProjTable minus = extend_with_graph(ref.cx, rp, ExtendOpts{});
      merge_halves(ref.cx, rq, minus, spec, ref.sink);
      ASSERT_GT(ref.sink.size(), 0u) << what;
      expect_same_rows(fused.sink, ref.sink, what);
      expect_same_model(fused, ref, what);
    }
  }
}

TEST(ExtendAndMerge, SinkAloneOverTheBudgetThrowsBudgetExceeded) {
  // On a complete graph each ordered edge (u, v) closes a triangle through
  // every other vertex, so keying the sink by (u, v, the triangle's
  // colors) makes it several times larger than the edge tables it joins:
  // a budget below the sink but above both inputs trips on the sink
  // alone.
  ThreadsGuard guard;
  const CsrGraph g = complete_graph(80);
  Fixture f(g, 6, 53);
  const ProjTable edges = init_path_from_graph(f.cx(), ExtendOpts{});
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {0, 1};
  const auto fused_rows = [&](std::size_t budget) {
    f.opts.max_table_entries = budget;
    const ExecContext cx = f.cx();
    ProjTable prefix = edges, plus = edges;
    FlatRows sink(cx.key_layout());
    (void)extend_and_merge(cx, prefix, nullptr, ExtendOpts{}, plus, spec,
                           sink);
    return sink.size();
  };
  for (const int threads : {1, 4}) {
    set_threads(threads);
    const std::size_t rows = fused_rows(80'000'000);
    ASSERT_GT(rows - 1, edges.size()) << "threads " << threads;
    EXPECT_EQ(fused_rows(rows), rows) << "threads " << threads;
    EXPECT_THROW((void)fused_rows(rows - 1), BudgetExceeded)
        << "threads " << threads;
  }
}

TEST(ExtendAndMerge, SinkSumsBeforeTheBudgetThrows) {
  // Under three colors every triangle u-x-v whose merge passes the Fig 6
  // test is colored {0, 1, 2}, so a merge keyed by the anchor alone
  // emits one row per such triangle under one of 80 keys (u, {0, 1, 2}).
  // FlatRows::add folds only a repeat of the last key, and the end
  // buckets interleave the anchors, so the rows the sink takes exceed a
  // budget of 80, while the summed sink fits it. Likewise aggregate to
  // arity 0 emits one row per edge into at most three keys.
  ThreadsGuard guard;
  const CsrGraph g = complete_graph(80);
  Fixture f(g, 3, 59);
  const ProjTable edges = init_path_from_graph(f.cx(), ExtendOpts{});
  ProjTable minus_in = edges;
  const ProjTable minus = extend_with_graph(f.cx(), minus_in, ExtendOpts{});
  MergeSpec spec;
  spec.out_arity = 1;
  spec.out[0] = {0, 0};
  for (const int threads : {1, 4}) {
    set_threads(threads);
    const std::string what = "threads " + std::to_string(threads);
    f.opts.max_table_entries = g.num_vertices();
    const ExecContext cx = f.cx();
    FlatRows fused(cx.key_layout()), merged(cx.key_layout());
    ProjTable prefix = edges, plus = edges;
    (void)extend_and_merge(cx, prefix, nullptr, ExtendOpts{}, plus, spec,
                           fused);
    ProjTable p2 = edges, m2 = minus;
    merge_halves(cx, p2, m2, spec, merged);
    for (const FlatRows* sink : {&fused, &merged}) {
      ASSERT_EQ(sink->size(), g.num_vertices()) << what;
      Count total = 0;
      for (std::size_t i = 0; i < sink->size(); ++i) {
        EXPECT_EQ(sink->key_at(i).v[0], i) << what;
        EXPECT_EQ(sink->key_at(i).sig, 0b111u) << what;
        total += sink->count_at(i);
      }
      // Every emission counts one triangle.
      EXPECT_GT(total, Count{10} * g.num_vertices()) << what;
    }
    expect_same_rows(fused, merged, what);
    f.opts.max_table_entries = 3;
    const ProjTable scalar = aggregate(f.cx(), edges, 0);
    EXPECT_LE(scalar.size(), 3u) << what;
    EXPECT_EQ(scalar.total(), edges.size()) << what;
  }
}

}  // namespace
}  // namespace ccbt
