// Google-benchmark microbenchmarks of the engine's primitives: the
// accumulation hash map, table sealing (counting partition + bucket
// index), O(1) group lookup, the parallel half-cycle merge, graph-edge
// extension, and an end-to-end triangle count. These guard the constants
// behind every figure bench.
//
// The binary first runs a small deterministic harness that times the
// three hot table-layer operations — group lookup, seal, merge — against
// their naive references (two binary searches per probe; a whole-table
// comparison sort) and writes the results to BENCH_primitives.json, so
// successive PRs can track the perf trajectory mechanically. The google
// benchmarks run afterwards.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
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

ProjTable unsorted_table(const std::vector<TableEntry>& entries) {
  AccumMap map(entries.size());
  for (const TableEntry& e : entries) map.add(e.key, e.cnt);
  return ProjTable::from_map(2, std::move(map));
}

// -------------------------------------------------------------------
// JSON harness: ns/probe (group), ns/entry (seal, merge), with naive
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
  ProjTable indexed = unsorted_table(random_binary_entries(n, 5));
  indexed.seal(SortOrder::kByV0, kDomain);

  // Same content without the index (forces the two-binary-search path).
  ProjTable searched = unsorted_table(random_binary_entries(n, 5));
  {
    TableEntry far{};
    far.key.v[0] = 0xFFFFFFF0u;  // out of any detectable domain
    searched.push_unchecked(far);
    searched.seal(SortOrder::kByV0);
  }

  Rng rng(17);
  std::vector<VertexId> keys(probes);
  for (auto& v : keys) v = static_cast<VertexId>(rng.below(kDomain));

  std::size_t sink = 0;
  Timer t_idx;
  for (VertexId v : keys) sink += indexed.group(0, v).size();
  const double ns_idx = t_idx.seconds() * 1e9 / static_cast<double>(probes);
  Timer t_bin;
  for (VertexId v : keys) sink += searched.group(0, v).size();
  const double ns_bin = t_bin.seconds() * 1e9 / static_cast<double>(probes);
  benchmark::DoNotOptimize(sink);

  out.entries = n;
  out.probes = probes;
  out.ns_per_probe = ns_idx;
  out.ns_per_probe_binary_search = ns_bin;
  return out;
}

struct SealNumbers {
  std::size_t entries = 0;
  double ns_per_entry = 0.0;
  double ns_per_entry_comparison_sort = 0.0;
};

SealNumbers measure_seal() {
  SealNumbers out;
  const std::size_t n = 1 << 18;
  const int reps = 9;
  const ProjTable pristine = unsorted_table(random_binary_entries(n, 7));
  out.entries = pristine.size();

  double bucket_s = 0.0;
  double compare_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    ProjTable a = pristine;
    Timer ta;
    a.seal(SortOrder::kByV0, kDomain);
    bucket_s += ta.seconds();
    benchmark::DoNotOptimize(a.entries().data());

    // Naive reference: the pre-index whole-table comparison sort.
    std::vector<TableEntry> b(pristine.entries().begin(),
                              pristine.entries().end());
    Timer tb;
    std::sort(b.begin(), b.end(),
              [](const TableEntry& x, const TableEntry& y) {
                if (x.key.v[0] != y.key.v[0]) return x.key.v[0] < y.key.v[0];
                if (x.key.v[1] != y.key.v[1]) return x.key.v[1] < y.key.v[1];
                if (x.key.v[2] != y.key.v[2]) return x.key.v[2] < y.key.v[2];
                if (x.key.v[3] != y.key.v[3]) return x.key.v[3] < y.key.v[3];
                return x.key.sig < y.key.sig;
              });
    compare_s += tb.seconds();
    benchmark::DoNotOptimize(b.data());
  }
  const double per = static_cast<double>(out.entries) * reps;
  out.ns_per_entry = bucket_s * 1e9 / per;
  out.ns_per_entry_comparison_sort = compare_s * 1e9 / per;
  return out;
}

struct MergeNumbers {
  std::size_t entries = 0;   // plus + minus input entries
  std::size_t outputs = 0;   // accumulated sink entries
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
  const ProjTable edges = init_path_from_graph(cx, ExtendOpts{});
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
    AccumMap sink;
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

void write_json_report() {
  const GroupNumbers g = measure_group_lookup();
  const SealNumbers s = measure_seal();
  const MergeNumbers m = measure_merge();
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  std::FILE* f = std::fopen("BENCH_primitives.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_primitives.json\n");
    return;
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
               "  \"seal\": {\n"
               "    \"entries\": %zu,\n"
               "    \"ns_per_entry\": %.3f,\n"
               "    \"ns_per_entry_comparison_sort\": %.3f,\n"
               "    \"speedup_vs_comparison_sort\": %.3f\n"
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
               m.entries, m.outputs, m.ns_per_entry);
  std::fclose(f);
  std::printf(
      "BENCH_primitives.json written: group %.1f ns/probe (binary search "
      "%.1f), seal %.1f ns/entry (comparison sort %.1f), merge %.1f "
      "ns/entry\n",
      g.ns_per_probe, g.ns_per_probe_binary_search, s.ns_per_entry,
      s.ns_per_entry_comparison_sort, m.ns_per_entry);
}

// -------------------------------------------------------------------
// Google benchmarks.

void BM_AccumMapAdd(benchmark::State& state) {
  const std::size_t n = state.range(0);
  Rng rng(5);
  std::vector<TableKey> keys(n);
  for (auto& k : keys) {
    k.v[0] = static_cast<VertexId>(rng.below(kDomain));
    k.v[1] = static_cast<VertexId>(rng.below(kDomain));
    k.sig = static_cast<Signature>(rng.below(256));
  }
  for (auto _ : state) {
    AccumMap map(n);
    for (const auto& k : keys) map.add(k, 1);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AccumMapAdd)->Arg(1 << 12)->Arg(1 << 16);

void BM_TableSeal(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const ProjTable pristine = unsorted_table(random_binary_entries(n, 7));
  for (auto _ : state) {
    state.PauseTiming();
    ProjTable t = pristine;
    state.ResumeTiming();
    t.seal(SortOrder::kByV0, kDomain);
    benchmark::DoNotOptimize(t.entries().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TableSeal)->Arg(1 << 14)->Arg(1 << 17);

void BM_GroupLookup(benchmark::State& state) {
  const std::size_t n = state.range(0);
  ProjTable t = unsorted_table(random_binary_entries(n, 9));
  t.seal(SortOrder::kByV0, kDomain);
  Rng rng(23);
  std::vector<VertexId> keys(1 << 12);
  for (auto& v : keys) v = static_cast<VertexId>(rng.below(kDomain));
  for (auto _ : state) {
    std::size_t sink = 0;
    for (VertexId v : keys) sink += t.group(0, v).size();
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
  const ProjTable edges = init_path_from_graph(cx, ExtendOpts{});
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
    AccumMap sink;
    state.ResumeTiming();
    merge_halves(cx, plus, minus, spec, sink);
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          (plus0.size() + minus0.size()));
}
BENCHMARK(BM_MergeHalves)->Arg(2000)->Arg(8000);

void BM_ExtendWithGraph(benchmark::State& state) {
  const CsrGraph g = chung_lu_power_law(4000, 1.7, 8.0, 3);
  const Coloring chi(g.num_vertices(), 5, 1);
  const DegreeOrder order(g);
  ExecOptions opts;
  opts.use_threads = false;
  const ExecContext cx{g, chi, order,
                       BlockPartition(g.num_vertices(), 1), nullptr, opts};
  const ProjTable init = init_path_from_graph(cx, ExtendOpts{});
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
  opts.use_threads = false;
  const ExecContext cx{g, chi, order,
                       BlockPartition(g.num_vertices(), 1), nullptr, opts};
  ExtendOpts anchored;
  anchored.anchor_higher = true;
  const ProjTable init = init_path_from_graph(cx, anchored);
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
  write_json_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
