// Google-benchmark microbenchmarks of the engine's primitives: the
// sinks' sort-and-sum (FlatRows::sum_duplicates), the transpose of a
// stored table (a summed sink with its bucket index), O(1) group lookup,
// the parallel half-cycle merge, graph-edge extension, and an end-to-end
// triangle count. These guard the constants behind every figure bench.
//
// The binary first runs a small deterministic harness that times the
// three hot table-layer operations — group lookup, transpose, merge —
// against their naive references (two binary searches per probe; a
// whole-table comparison sort) and writes the results to
// BENCH_primitives.json, so successive changes can track the perf
// trajectory mechanically. It exits 1 when the transposed rows or their
// groups differ from the comparison sort's. The google benchmarks run
// afterwards.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/util/rng.hpp"
#include "ccbt/util/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace ccbt;

constexpr VertexId kDomain = 1 << 14;

std::vector<TableEntry> random_binary_entries(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TableEntry> entries(n);
  for (TableEntry& e : entries) {
    e.key.v[0] = static_cast<VertexId>(rng.below(kDomain));
    e.key.v[1] = static_cast<VertexId>(rng.below(kDomain));
    e.key.sig = static_cast<Signature>(1u << rng.below(8));
    e.cnt = 1;
  }
  return entries;
}

/// The entries summed through a FlatRows sink: a stored table, sealed
/// kByV0 with its bucket index over kDomain when every key lies inside it.
ProjTable stored_table(const std::vector<TableEntry>& entries) {
  FlatRows sink(KeyLayout::for_vertices(kDomain));
  for (const TableEntry& e : entries) sink.append(e.key, e.cnt);
  sink.sum_duplicates();
  return ProjTable::from_sink(2, std::move(sink), kDomain);
}

bool full_key_less(const TableEntry& x, const TableEntry& y) {
  if (x.key.v[0] != y.key.v[0]) return x.key.v[0] < y.key.v[0];
  if (x.key.v[1] != y.key.v[1]) return x.key.v[1] < y.key.v[1];
  if (x.key.v[2] != y.key.v[2]) return x.key.v[2] < y.key.v[2];
  if (x.key.v[3] != y.key.v[3]) return x.key.v[3] < y.key.v[3];
  return x.key.sig < y.key.sig;
}

// -------------------------------------------------------------------
// JSON harness: ns/probe (group), ns/entry (transpose, merge), with naive
// baselines measured in-process so every report carries its own speedup.

struct GroupNumbers {
  std::size_t entries = 0;
  std::size_t probes = 0;
  double ns_per_probe = 0.0;
  double ns_per_probe_binary_search = 0.0;
};

GroupNumbers measure_group_lookup() {
  GroupNumbers out;
  const std::size_t n = 1 << 17;
  const std::size_t probes = 1 << 21;
  const ProjTable indexed = stored_table(random_binary_entries(n, 5));

  // Same content without the index (forces the two-binary-search path).
  std::vector<TableEntry> with_far = random_binary_entries(n, 5);
  TableEntry far{};
  far.key.v[0] = 0xFFFFFFF0u;  // out of any detectable domain
  with_far.push_back(far);
  const ProjTable searched = stored_table(with_far);

  Rng rng(17);
  std::vector<VertexId> keys(probes);
  for (auto& v : keys) v = static_cast<VertexId>(rng.below(kDomain));

  std::size_t sink = 0;
  Timer t_idx;
  for (VertexId v : keys) {
    const auto [lo, hi] = indexed.group_span(0, v);
    sink += hi - lo;
  }
  const double ns_idx = t_idx.seconds() * 1e9 / static_cast<double>(probes);
  Timer t_bin;
  for (VertexId v : keys) {
    const auto [lo, hi] = searched.group_span(0, v);
    sink += hi - lo;
  }
  const double ns_bin = t_bin.seconds() * 1e9 / static_cast<double>(probes);
  benchmark::DoNotOptimize(sink);

  out.entries = n;
  out.probes = probes;
  out.ns_per_probe = ns_idx;
  out.ns_per_probe_binary_search = ns_bin;
  return out;
}

struct TransposeNumbers {
  std::size_t entries = 0;
  double ns_per_entry = 0.0;
  double ns_per_entry_comparison_sort = 0.0;
  bool matches = false;  // rows and groups equal the comparison sort's
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Whether `t` holds exactly `want` and each of its slot-0 groups is the
/// run of `want` with that slot-0 value.
bool same_table(const ProjTable& t, const std::vector<TableEntry>& want) {
  if (!t.has_bucket_index() || t.size() != want.size()) return false;
  bool same = true;
  std::size_t i = 0;
  t.for_each_entry([&](const TableEntry& e) {
    same = same && e.key == want[i].key && e.cnt == want[i].cnt;
    ++i;
  });
  if (!same) return false;
  std::size_t lo = 0;
  for (VertexId v = 0; v < kDomain; ++v) {
    std::size_t hi = lo;
    while (hi < want.size() && want[hi].key.v[0] == v) ++hi;
    if (t.group_span(0, v) != std::pair<std::size_t, std::size_t>{lo, hi}) {
      return false;
    }
    lo = hi;
  }
  return lo == want.size();
}

/// Median over `reps` timed transposes of one 2^18-row stored table and
/// of its naive reference (swap every key, then a whole-table comparison
/// sort), each after one untimed run that warms the allocator; and
/// whether the transpose equals the reference.
TransposeNumbers measure_transpose() {
  TransposeNumbers out;
  const std::size_t n = 1 << 18;
  const int reps = 15;
  const ProjTable stored = stored_table(random_binary_entries(n, 7));
  out.entries = stored.size();

  const auto transpose_seconds = [&] {
    Timer t;
    const ProjTable tt = stored.transposed(kDomain);
    const double s = t.seconds();
    benchmark::DoNotOptimize(tt.size());
    return s;
  };
  std::vector<TableEntry> rows;
  rows.reserve(stored.size());
  stored.for_each_entry([&](const TableEntry& e) { rows.push_back(e); });
  std::vector<TableEntry> want;
  const auto sort_seconds = [&] {
    std::vector<TableEntry> b = rows;
    Timer t;
    for (TableEntry& e : b) std::swap(e.key.v[0], e.key.v[1]);
    std::sort(b.begin(), b.end(), full_key_less);
    const double s = t.seconds();
    want = std::move(b);
    return s;
  };
  transpose_seconds();
  sort_seconds();
  std::vector<double> transpose_s, sort_s;
  for (int r = 0; r < reps; ++r) {
    transpose_s.push_back(transpose_seconds());
    sort_s.push_back(sort_seconds());
  }
  const double per = static_cast<double>(out.entries);
  out.ns_per_entry = median(transpose_s) * 1e9 / per;
  out.ns_per_entry_comparison_sort = median(sort_s) * 1e9 / per;
  out.matches = same_table(stored.transposed(kDomain), want);
  return out;
}

struct MergeNumbers {
  std::size_t entries = 0;   // plus + minus input entries
  std::size_t outputs = 0;   // summed sink rows
  double ns_per_entry = 0.0;
};

MergeNumbers measure_merge() {
  MergeNumbers out;
  // Half-cycle tables over a real graph/coloring so signature filters and
  // charges run exactly as in a solver.
  const CsrGraph g = chung_lu_power_law(8000, 1.7, 8.0, 3);
  const Coloring chi(g.num_vertices(), 5, 1);
  const DegreeOrder order(g);
  ExecOptions opts;
  const ExecContext cx{g, chi, order,
                       BlockPartition(g.num_vertices(), 1), nullptr, opts};
  ProjTable edges = init_path_from_graph(cx, ExtendOpts{});
  const ProjTable plus0 = extend_with_graph(cx, edges, ExtendOpts{});
  const ProjTable minus0 = extend_with_graph(cx, edges, ExtendOpts{});
  out.entries = plus0.size() + minus0.size();

  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {0, 1};
  const int reps = 5;
  double seconds = 0.0;
  for (int r = 0; r < reps; ++r) {
    ProjTable plus = plus0;
    ProjTable minus = minus0;
    FlatRows sink(cx.key_layout());
    Timer t;
    merge_halves(cx, plus, minus, spec, sink);
    seconds += t.seconds();
    out.outputs = sink.size();
    benchmark::DoNotOptimize(sink.size());
  }
  out.ns_per_entry =
      seconds * 1e9 / (static_cast<double>(out.entries) * reps);
  return out;
}

/// Writes BENCH_primitives.json; returns whether the transpose matched
/// its reference.
bool write_json_report() {
  const GroupNumbers g = measure_group_lookup();
  const TransposeNumbers s = measure_transpose();
  const MergeNumbers m = measure_merge();
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  std::FILE* f = std::fopen("BENCH_primitives.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_primitives.json\n");
    return s.matches;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"primitives\",\n"
               "  \"threads\": %d,\n"
               "  \"group_lookup\": {\n"
               "    \"entries\": %zu,\n"
               "    \"probes\": %zu,\n"
               "    \"ns_per_probe\": %.3f,\n"
               "    \"ns_per_probe_binary_search\": %.3f,\n"
               "    \"speedup_vs_binary_search\": %.3f\n"
               "  },\n"
               "  \"transpose\": {\n"
               "    \"entries\": %zu,\n"
               "    \"ns_per_entry\": %.3f,\n"
               "    \"ns_per_entry_comparison_sort\": %.3f,\n"
               "    \"speedup_vs_comparison_sort\": %.3f,\n"
               "    \"matches_comparison_sort\": %s\n"
               "  },\n"
               "  \"merge\": {\n"
               "    \"input_entries\": %zu,\n"
               "    \"output_entries\": %zu,\n"
               "    \"ns_per_entry\": %.3f\n"
               "  }\n"
               "}\n",
               threads, g.entries, g.probes, g.ns_per_probe,
               g.ns_per_probe_binary_search,
               g.ns_per_probe > 0.0
                   ? g.ns_per_probe_binary_search / g.ns_per_probe
                   : 0.0,
               s.entries, s.ns_per_entry, s.ns_per_entry_comparison_sort,
               s.ns_per_entry > 0.0
                   ? s.ns_per_entry_comparison_sort / s.ns_per_entry
                   : 0.0,
               s.matches ? "true" : "false", m.entries, m.outputs,
               m.ns_per_entry);
  std::fclose(f);
  std::printf(
      "BENCH_primitives.json written: group %.1f ns/probe (binary search "
      "%.1f), transpose %.1f ns/entry (comparison sort %.1f), merge %.1f "
      "ns/entry\n",
      g.ns_per_probe, g.ns_per_probe_binary_search, s.ns_per_entry,
      s.ns_per_entry_comparison_sort, m.ns_per_entry);
  if (!s.matches) {
    std::fprintf(stderr,
                 "transpose differs from the comparison-sort reference\n");
  }
  return s.matches;
}

// -------------------------------------------------------------------
// Google benchmarks.

/// n rows into a sink, then one sort-and-sum.
void BM_SinkSum(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(5);
  std::vector<TableKey> keys(n);
  for (auto& k : keys) {
    k.v[0] = static_cast<VertexId>(rng.below(kDomain));
    k.v[1] = static_cast<VertexId>(rng.below(kDomain));
    k.sig = static_cast<Signature>(rng.below(256));
  }
  for (auto _ : state) {
    FlatRows sink(KeyLayout::for_vertices(kDomain));
    for (const auto& k : keys) sink.append(k, 1);
    sink.sum_duplicates();
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SinkSum)->Arg(1 << 12)->Arg(1 << 16);

void BM_Transpose(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const ProjTable stored = stored_table(random_binary_entries(n, 7));
  for (auto _ : state) {
    const ProjTable t = stored.transposed(kDomain);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Transpose)->Arg(1 << 14)->Arg(1 << 17);

void BM_GroupLookup(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const ProjTable t = stored_table(random_binary_entries(n, 9));
  Rng rng(23);
  std::vector<VertexId> keys(1 << 12);
  for (auto& v : keys) v = static_cast<VertexId>(rng.below(kDomain));
  for (auto _ : state) {
    std::size_t sink = 0;
    for (VertexId v : keys) {
      const auto [lo, hi] = t.group_span(0, v);
      sink += hi - lo;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_GroupLookup)->Arg(1 << 14)->Arg(1 << 17);

void BM_MergeHalves(benchmark::State& state) {
  const CsrGraph g = chung_lu_power_law(
      static_cast<VertexId>(state.range(0)), 1.7, 8.0, 3);
  const Coloring chi(g.num_vertices(), 5, 1);
  const DegreeOrder order(g);
  ExecOptions opts;
  const ExecContext cx{g, chi, order,
                       BlockPartition(g.num_vertices(), 1), nullptr, opts};
  ProjTable edges = init_path_from_graph(cx, ExtendOpts{});
  const ProjTable plus0 = extend_with_graph(cx, edges, ExtendOpts{});
  const ProjTable minus0 = extend_with_graph(cx, edges, ExtendOpts{});
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {0, 1};
  for (auto _ : state) {
    state.PauseTiming();
    ProjTable plus = plus0;
    ProjTable minus = minus0;
    FlatRows sink(cx.key_layout());
    state.ResumeTiming();
    merge_halves(cx, plus, minus, spec, sink);
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          (plus0.size() + minus0.size()));
}
BENCHMARK(BM_MergeHalves)->Arg(2000)->Arg(8000);

/// Holds the OpenMP pool at one thread for its scope, so a benchmark
/// times the serial paths, and restores the pool's size on exit.
class OneThread {
 public:
#ifdef _OPENMP
  OneThread() : threads_(omp_get_max_threads()) { omp_set_num_threads(1); }
  ~OneThread() { omp_set_num_threads(threads_); }
  OneThread(const OneThread&) = delete;
  OneThread& operator=(const OneThread&) = delete;

 private:
  int threads_;
#endif
};

void BM_ExtendWithGraph(benchmark::State& state) {
  const CsrGraph g = chung_lu_power_law(4000, 1.7, 8.0, 3);
  const Coloring chi(g.num_vertices(), 5, 1);
  const DegreeOrder order(g);
  ExecOptions opts;
  const OneThread serial;
  const ExecContext cx{g, chi, order,
                       BlockPartition(g.num_vertices(), 1), nullptr, opts};
  ProjTable init = init_path_from_graph(cx, ExtendOpts{});
  for (auto _ : state) {
    const ProjTable out = extend_with_graph(cx, init, ExtendOpts{});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * init.size());
}
BENCHMARK(BM_ExtendWithGraph);

void BM_ExtendWithGraphAnchored(benchmark::State& state) {
  // The DB variant of the same extension: the ≻ filter should make it
  // strictly cheaper on a heavy-tailed graph.
  const CsrGraph g = chung_lu_power_law(4000, 1.7, 8.0, 3);
  const Coloring chi(g.num_vertices(), 5, 1);
  const DegreeOrder order(g);
  ExecOptions opts;
  const OneThread serial;
  const ExecContext cx{g, chi, order,
                       BlockPartition(g.num_vertices(), 1), nullptr, opts};
  ExtendOpts anchored;
  anchored.anchor_higher = true;
  ProjTable init = init_path_from_graph(cx, anchored);
  for (auto _ : state) {
    const ProjTable out = extend_with_graph(cx, init, anchored);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * init.size());
}
BENCHMARK(BM_ExtendWithGraphAnchored);

void BM_TriangleCountDB(benchmark::State& state) {
  const CsrGraph g = chung_lu_power_law(
      static_cast<VertexId>(state.range(0)), 1.7, 6.0, 9);
  const QueryGraph q = q_cycle(3);
  ExecOptions opts;
  opts.algo = Algo::kDB;
  const CountingSession session(g, q, make_plan(q), opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.count_colorful_seeded(4).colorful);
  }
}
BENCHMARK(BM_TriangleCountDB)->Arg(2000)->Arg(8000);

void BM_Brain1DBvsPS(benchmark::State& state) {
  const CsrGraph g = chung_lu_power_law(3000, 1.7, 6.0, 11);
  const QueryGraph q = q_brain1();
  ExecOptions opts;
  opts.algo = state.range(0) == 0 ? Algo::kPS : Algo::kDB;
  const CountingSession session(g, q, make_plan(q), opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.count_colorful_seeded(4).colorful);
  }
  state.SetLabel(state.range(0) == 0 ? "PS" : "DB");
}
BENCHMARK(BM_Brain1DBvsPS)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  if (!write_json_report()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
