// Born-sorted path tables (table/flat_rows.hpp, engine/primitives.hpp):
// every frontier bucket a table is built from must
// hold exactly the rows that land on its vertex, sorted in kByV1 order
// with equal keys summed in 64 bits. The reference here shares no code
// with the bucket builder — a std::sort and a run-sum over the raw rows:
//   * SortedBuckets fed random rows per bucket, through u16 -> u32 ->
//     wide escalation inside one bucket, wide keys, empty buckets, dense
//     (narrow rows off) scratch, and split vertex ranges;
//   * each path primitive against the rows and load-model charges of its
//     per-entry push kernel, with anchor_higher on and off, a tracked
//     slot, more than eight colors and narrow rows off;
//   * sealed tables and load totals at one and at four OpenMP threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ccbt/core/color_coding.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

/// A key in kByV1 order: (v1, v0, v2, v3, sig).
using OrderKey = std::array<std::uint64_t, 5>;

using RefRows = std::vector<std::pair<OrderKey, Count>>;

using RawRows = std::vector<std::pair<TableKey, Count>>;

OrderKey order_key(const TableKey& k) {
  return {k.v[1], k.v[0], k.v[2], k.v[3], k.sig};
}

/// The reference: sort by the kByV1 key, sum equal-key runs.
RefRows sorted_sums(const RawRows& raw) {
  RefRows rows;
  for (const auto& [k, c] : raw) rows.push_back({order_key(k), c});
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  RefRows out;
  for (const auto& [k, c] : rows) {
    if (out.empty() || out.back().first != k) {
      out.push_back({k, c});
      continue;
    }
    out.back().second += c;
  }
  return out;
}

/// The table's rows in storage order, plus its shape: sealed kByV1 with a
/// bucket index whose groups over [0, buckets) tile the rows, each holding
/// exactly the rows of its vertex.
RefRows table_rows(const ProjTable& t, VertexId buckets) {
  RefRows out;
  t.for_each_entry([&](const TableEntry& e) {
    out.push_back({order_key(e.key), e.cnt});
  });
  EXPECT_EQ(t.order(), SortOrder::kByV1);
  EXPECT_TRUE(t.has_bucket_index());
  std::size_t next = 0;
  for (VertexId v = 0; v < buckets; ++v) {
    const auto [lo, hi] = t.group_span(1, v);
    EXPECT_EQ(lo, next) << "bucket " << v;
    for (std::size_t i = lo; i < hi; ++i) EXPECT_EQ(out[i].first[0], v);
    next = hi;
  }
  EXPECT_EQ(next, out.size());
  return out;
}

void expect_rows_eq(const RefRows& got, const RefRows& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "row " << i;
    ASSERT_EQ(got[i].second, want[i].second) << "row " << i;
  }
}

// ------------------------------------------------------ bucket builder

struct BucketSpec {
  VertexId buckets = 40;
  int max_rows = 30;       // rows per bucket drawn from [0, max_rows]
  VertexId v0_range = 12;  // small: plenty of equal keys to sum
  Count max_count = 9;     // counts drawn from [0, max_count]
  bool tracked = false;    // set slot 2 on some rows (unpackable keys)
};

std::vector<RawRows> draw_buckets(const BucketSpec& s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RawRows> out(s.buckets);
  for (VertexId v = 0; v < s.buckets; ++v) {
    // Every fifth bucket stays empty, the first and last included.
    if (v % 5 == 0 || v + 1 == s.buckets) continue;
    const auto n = rng.below(static_cast<std::uint64_t>(s.max_rows) + 1);
    for (std::uint64_t i = 0; i < n; ++i) {
      TableKey k;
      k.v[0] = static_cast<VertexId>(rng.below(s.v0_range));
      k.v[1] = v;
      if (s.tracked && rng.below(3) == 0) {
        k.v[2] = static_cast<VertexId>(rng.below(4));
      }
      k.sig = static_cast<Signature>(rng.below(8));
      // Half the rows carry a zero count.
      const Count c = rng.below(2) == 0 ? 1 + rng.below(s.max_count) : 0;
      out[v].push_back({k, c});
    }
  }
  return out;
}

/// Build buckets [lo, hi) through one SortedBuckets, the way one thread
/// of build_buckets builds its vertex range.
SortedBuckets build_range(const std::vector<RawRows>& buckets, VertexId lo,
                          VertexId hi, bool wide) {
  using Mode = FlatRows::Mode;
  SortedBuckets built(wide);
  FlatRows scratch;
  for (VertexId v = lo; v < hi; ++v) {
    scratch.reset(wide ? Mode::kWide : Mode::kU16);
    for (const auto& [k, c] : buckets[v]) scratch.append(k, c);
    built.close(scratch);
  }
  return built;
}

/// Build the table in `parts` contiguous vertex ranges, check it against
/// the reference, and return it.
ProjTable expect_buckets_match(const std::vector<RawRows>& buckets,
                               bool wide = false, int parts = 1) {
  const auto n = static_cast<VertexId>(buckets.size());
  SortedBuckets built = build_range(buckets, 0, n / parts, wide);
  for (int p = 1; p < parts; ++p) {
    built.absorb(
        build_range(buckets, n * p / parts, n * (p + 1) / parts, wide));
  }
  EXPECT_EQ(built.buckets(), buckets.size());
  RawRows all;
  for (const RawRows& b : buckets) all.insert(all.end(), b.begin(), b.end());
  EXPECT_EQ(built.emitted_rows(), all.size());
  ProjTable t = ProjTable::from_buckets(2, std::move(built));
  expect_rows_eq(table_rows(t, n), sorted_sums(all));
  return t;
}

TEST(BornSorted, BucketsMatchSortReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto buckets = draw_buckets(BucketSpec{}, seed * 31 + 1);
    const ProjTable t = expect_buckets_match(buckets);
    // Non-empty narrow builds stay narrow; an empty table is dense.
    EXPECT_EQ(t.packed_flat(), t.size() != 0);
    // Split vertex ranges concatenate to the same rows.
    expect_buckets_match(buckets, /*wide=*/false, /*parts=*/3);
    // Narrow rows off: dense scratch, same rows.
    const ProjTable dense = expect_buckets_match(buckets, true);
    EXPECT_FALSE(dense.packed_flat());
  }
}

TEST(BornSorted, LargeBucketsMatchSortReference) {
  // Buckets of thousands of rows over a wide v0 range: the sort-key
  // radix passes rather than the small-bucket fallback.
  BucketSpec s;
  s.buckets = 6;
  s.max_rows = 5000;
  s.v0_range = 100'000;
  expect_buckets_match(draw_buckets(s, 77));
  s.v0_range = 40;  // long equal-key runs
  expect_buckets_match(draw_buckets(s, 78));
}

RawRows repeated_row(VertexId v1, Count count, int reps) {
  TableKey k;
  k.v[0] = 3;
  k.v[1] = v1;
  k.sig = 5;
  return RawRows(static_cast<std::size_t>(reps), {k, count});
}

TEST(BornSorted, RunSumEscalatesU16ToU32InsideOneBucket) {
  // Every row fits u16; the sum of bucket 2's run does not.
  std::vector<RawRows> buckets(4);
  buckets[1] = repeated_row(1, 7, 3);
  buckets[2] = repeated_row(2, 0xF000, 40);
  buckets[3] = repeated_row(3, 1, 2);
  const ProjTable t = expect_buckets_match(buckets);
  ASSERT_NE(t.flat_storage(), nullptr);
  EXPECT_EQ(t.flat_storage()->mode(), FlatRows::Mode::kU32);
  EXPECT_EQ(t.layout().max_count, Count{0xF000} * 40);
}

TEST(BornSorted, RunSumEscalatesU32ToWideInsideOneBucket) {
  // Every row fits u32; the sum of bucket 1's run does not.
  std::vector<RawRows> buckets(3);
  buckets[0] = repeated_row(0, 2, 2);
  buckets[1] = repeated_row(1, 0xF0000000ull, 20);
  buckets[2] = repeated_row(2, 0xFFFF, 3);
  const ProjTable t = expect_buckets_match(buckets);
  EXPECT_FALSE(t.packed_flat());
  EXPECT_EQ(t.size(), 3u);
}

TEST(BornSorted, TrackedSlotGivesWideKeys) {
  // A tracked slot >= 2 does not pack: the rows go dense and each bucket
  // orders by (v0, v2, v3, sig).
  BucketSpec s;
  s.tracked = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ProjTable t = expect_buckets_match(draw_buckets(s, seed));
    EXPECT_FALSE(t.packed_flat());
  }
}

TEST(BornSorted, AllBucketsEmpty) {
  const ProjTable t = expect_buckets_match(std::vector<RawRows>(7));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.group_span(1, 6), (std::pair<std::size_t, std::size_t>{0, 0}));
}

// ---------------------------------------------------------- primitives

// Per-entry push kernels, the primitives' reference: each performs the
// load-model charges itself and hands finished rows to `emit(key, count)`.
// With kernel_init_from_child and kernel_node_join, the row helpers the
// pull bodies run, they cover every path primitive.

/// Initial path entries out of one data vertex u (Procedure 1 init).
template <typename Emit>
void kernel_init_from_graph(const ExecContext& cx, VertexId u,
                            const ExtendOpts& o, Emit&& emit) {
  const CsrGraph& g = cx.g;
  cx.charge(u, g.degree(u));
  for (VertexId w : g.neighbors(u)) {
    if (o.anchor_higher && !cx.order.higher(u, w)) continue;
    if (cx.chi.color(u) == cx.chi.color(w)) continue;
    TableKey key;
    key.v[0] = u;
    key.v[1] = w;
    if (o.track_slot >= 0) key.v[o.track_slot] = w;
    key.sig = cx.chi.bit(u) | cx.chi.bit(w);
    emit(key, Count{1});
    cx.send(u, w, 1);
  }
}

/// Extend one path entry by every data-graph edge out of its frontier.
template <typename Emit>
void kernel_extend_with_graph(const ExecContext& cx, const TableEntry& e,
                              const ExtendOpts& o, Emit&& emit) {
  const CsrGraph& g = cx.g;
  const VertexId v = e.key.v[1];
  cx.charge(v, g.degree(v));
  for (VertexId w : g.neighbors(v)) {
    if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) continue;
    const Signature w_bit = cx.chi.bit(w);
    if ((e.key.sig & w_bit) != 0) continue;
    TableKey key = e.key;
    key.v[1] = w;
    if (o.track_slot >= 0) key.v[o.track_slot] = w;
    key.sig = e.key.sig | w_bit;
    emit(key, e.cnt);
    cx.send(v, w, 1);
  }
}

/// EdgeJoin: extend one path entry through its frontier's group of a
/// child block's binary table.
template <typename Emit>
void kernel_extend_with_child(const ExecContext& cx, const TableEntry& e,
                              std::span<const TableEntry> group,
                              const ExtendOpts& o, Emit&& emit) {
  const VertexId v = e.key.v[1];
  cx.charge(v, group.size());
  const Signature v_bit = cx.chi.bit(v);
  for (const TableEntry& ce : group) {
    if (!node_join_compatible(e.key.sig, ce.key.sig, v_bit)) continue;
    const VertexId w = ce.key.v[1];
    if (o.anchor_higher && !cx.order.higher(e.key.v[0], w)) continue;
    TableKey key = e.key;
    key.v[1] = w;
    if (o.track_slot >= 0) key.v[o.track_slot] = w;
    key.sig = e.key.sig | ce.key.sig;
    emit(key, e.cnt * ce.cnt);
    cx.send(v, w, 1);
  }
}

/// A single-coloring execution context with its own load model.
struct Fixture {
  CsrGraph g;
  Coloring chi;
  DegreeOrder order;
  LoadModel load;
  ExecContext cx;

  Fixture(VertexId n, std::size_t m, int colors, std::uint64_t seed,
          ExecOptions opts = {})
      : g(erdos_renyi(n, m, seed)),
        chi(n, colors, seed * 131),
        order(g),
        load(4),
        cx{g, chi, order, BlockPartition(n, 4), &load, opts} {}
};

/// Push-kernel reference for one primitive: `run(cx, emit)` replays the
/// per-entry kernels into a row list on a context whose load model is
/// fresh, so the charges can be compared phase for phase.
struct Reference {
  RefRows rows;
  std::vector<std::uint64_t> ops;
  std::uint64_t comm = 0;
};

template <typename Run>
Reference push_reference(const ExecContext& cx, Run&& run) {
  LoadModel load(cx.load->num_ranks());
  ExecContext rcx{cx.g, cx.chi, cx.order, cx.part, &load, cx.opts};
  RawRows raw;
  run(rcx, [&](const TableKey& k, Count c) { raw.push_back({k, c}); });
  rcx.end_phase();
  return {sorted_sums(raw), load.rank_ops(), load.total_comm()};
}

/// The primitive's output and the load it charged since `ops0`/`comm0`
/// must equal the reference.
void expect_primitive_matches(const Fixture& f, const ProjTable& got,
                              const Reference& want,
                              const std::vector<std::uint64_t>& ops0,
                              std::uint64_t comm0) {
  expect_rows_eq(table_rows(got, f.g.num_vertices()), want.rows);
  std::vector<std::uint64_t> ops = f.load.rank_ops();
  for (std::size_t r = 0; r < ops.size(); ++r) ops[r] -= ops0[r];
  EXPECT_EQ(ops, want.ops);
  EXPECT_EQ(f.load.total_comm() - comm0, want.comm);
}

/// Every path primitive, chained the way build_path chains them, each
/// checked against its push kernel.
void run_primitive_suite(const ExtendOpts& o, int colors, bool compress,
                         std::uint64_t seed) {
  ExecOptions opts;
  opts.lane_compress = compress;
  Fixture f(90, 360, colors, seed, opts);
  const ExecContext& cx = f.cx;
  SCOPED_TRACE("track=" + std::to_string(o.track_slot) + " anchor_higher=" +
               std::to_string(o.anchor_higher) + " colors=" +
               std::to_string(colors) + " compress=" +
               std::to_string(compress));
  std::vector<std::uint64_t> ops0;
  std::uint64_t comm0 = 0;
  auto mark = [&] {
    ops0 = f.load.rank_ops();
    comm0 = f.load.total_comm();
  };

  // init_path_from_graph.
  mark();
  ProjTable path = init_path_from_graph(cx, o);
  expect_primitive_matches(
      f, path,
      push_reference(cx,
                     [&](const ExecContext& rcx, auto&& emit) {
                       for (VertexId u = 0; u < f.g.num_vertices(); ++u) {
                         kernel_init_from_graph(rcx, u, o, emit);
                       }
                     }),
      ops0, comm0);

  // extend_with_graph, twice (the second reads a born-sorted input).
  for (int step = 0; step < 2; ++step) {
    const Reference want =
        push_reference(cx, [&](const ExecContext& rcx, auto&& emit) {
          TableEntry tmp;
          for (std::size_t i = 0; i < path.size(); ++i) {
            kernel_extend_with_graph(rcx, path.row_at(i, tmp), o, emit);
          }
        });
    mark();
    path = extend_with_graph(cx, path, o);
    expect_primitive_matches(f, path, want, ops0, comm0);
  }

  // A binary child table (the graph's edges, sealed kByV0 as stored) and
  // a unary one (its rows summed out to slot 0).
  ProjTable child = init_path_from_graph(cx, ExtendOpts{});
  child.seal(SortOrder::kByV0, f.g.num_vertices());
  ProjTable unary = child.aggregated(1);
  unary.seal(SortOrder::kByV0, f.g.num_vertices());

  // init_path_from_child, in both orientations.
  for (const bool flip : {false, true}) {
    const Reference want =
        push_reference(cx, [&](const ExecContext& rcx, auto&& emit) {
          TableEntry tmp;
          for (std::size_t i = 0; i < child.size(); ++i) {
            kernel_init_from_child(rcx, child.row_at(i, tmp), flip, o, emit);
          }
        });
    mark();
    const ProjTable init = init_path_from_child(cx, child, flip, o);
    expect_primitive_matches(f, init, want, ops0, comm0);
  }

  // extend_with_child: the child probed by the path's frontier, handed
  // over as stored (transposed inside) and in the flipped orientation.
  ProjTable flipped = child.transposed();
  flipped.seal(SortOrder::kByV0, f.g.num_vertices());
  {
    const Reference want =
        push_reference(cx, [&](const ExecContext& rcx, auto&& emit) {
          std::vector<TableEntry> scratch;
          TableEntry tmp;
          for (std::size_t i = 0; i < path.size(); ++i) {
            const TableEntry& e = path.row_at(i, tmp);
            kernel_extend_with_child(
                rcx, e, child.group_expanded(0, e.key.v[1], scratch), o,
                emit);
          }
        });
    for (const bool flip : {false, true}) {
      mark();
      const ProjTable ext =
          extend_with_child(cx, path, flip ? flipped : child, o, flip);
      expect_primitive_matches(f, ext, want, ops0, comm0);
    }
  }

  // node_join at either key slot.
  for (const int slot : {0, 1}) {
    const Reference want =
        push_reference(cx, [&](const ExecContext& rcx, auto&& emit) {
          std::vector<TableEntry> scratch;
          TableEntry tmp;
          for (std::size_t i = 0; i < path.size(); ++i) {
            const TableEntry& e = path.row_at(i, tmp);
            kernel_node_join(rcx, e,
                             unary.group_expanded(0, e.key.v[slot], scratch),
                             slot, emit);
          }
        });
    mark();
    const ProjTable joined = node_join(cx, path, unary, slot);
    expect_primitive_matches(f, joined, want, ops0, comm0);
  }
}

TEST(BornSorted, PrimitivesMatchPushKernels) {
  std::uint64_t seed = 41;
  for (const bool anchor_higher : {false, true}) {
    for (const int track : {-1, 2}) {
      run_primitive_suite(ExtendOpts{track, anchor_higher}, 5, true, ++seed);
    }
  }
  // Colors past 8 give signatures the packed key cannot hold.
  run_primitive_suite(ExtendOpts{}, 10, true, ++seed);
  run_primitive_suite(ExtendOpts{-1, true}, 5, false, ++seed);
}

// ------------------------------------------------------- thread counts

#ifdef _OPENMP
/// Restore the OpenMP team size however a test exits.
struct ThreadsGuard {
  int saved = omp_get_max_threads();
  ~ThreadsGuard() { omp_set_num_threads(saved); }
};

TEST(BornSorted, TablesAndLoadIdenticalAtOneAndFourThreads) {
  ThreadsGuard guard;
  // Large enough that every phase splits its vertex range across threads.
  struct Run {
    RefRows table;
    std::vector<std::uint64_t> ops;
    std::uint64_t comm = 0;
  };
  auto run = [](int threads) {
    omp_set_num_threads(threads);
    Fixture f(3000, 15000, 5, 91);
    const ExtendOpts o{-1, true};
    ProjTable path = init_path_from_graph(f.cx, o);
    path = extend_with_graph(f.cx, path, o);
    path = extend_with_graph(f.cx, path, o);
    return Run{table_rows(path, f.g.num_vertices()), f.load.rank_ops(),
               f.load.total_comm()};
  };
  const Run one = run(1);
  const Run four = run(4);
  ASSERT_GT(one.table.size(), 4096u);
  expect_rows_eq(four.table, one.table);
  EXPECT_EQ(four.ops, one.ops);
  EXPECT_EQ(four.comm, one.comm);

  // Whole executions, of one coloring and of a batch of eight: per-lane
  // counts and every load total.
  const CsrGraph g = erdos_renyi(2000, 9000, 92);
  const QueryGraph q = named_query("dros");
  ExecOptions opts;
  opts.sim_ranks = 8;
  const CountingSession session(g, q, make_plan(q), opts);
  for (const int width : {1, 8}) {
    SCOPED_TRACE("batch of " + std::to_string(width));
    std::vector<std::uint64_t> seeds(width);
    for (int l = 0; l < width; ++l) seeds[l] = 500 + l;
    omp_set_num_threads(1);
    const ExecStats s1 = session.count_colorful_seeded(seeds);
    omp_set_num_threads(4);
    const ExecStats s4 = session.count_colorful_seeded(seeds);
    EXPECT_EQ(s4.colorful_lane, s1.colorful_lane);
    EXPECT_EQ(s4.total_ops, s1.total_ops);
    EXPECT_EQ(s4.max_rank_ops, s1.max_rank_ops);
    EXPECT_EQ(s4.total_comm, s1.total_comm);
    EXPECT_EQ(s4.sim_time, s1.sim_time);
  }
}
#endif

}  // namespace
}  // namespace ccbt
