// Accumulate-only microbench: the born-sorted bucket build in isolation
// (table/flat_rows.hpp), without the estimator noise of the full batch
// bench. Each cell replays one phase's emission shape — buckets of packed
// rows with duplicate keys, packed in the key layout of a graph with as
// many vertices as the cell has buckets (at least 60,000) and appended to
// a per-bucket scratch exactly as the path primitives' extend does — and
// closes every bucket through SortedBuckets (local sort + exact run sums).
//
// Two sweeps share the grid: rows per bucket {16, 64, 256, 1024, 4096}
// with a key universe 3/4 the bucket's size (about a third of the rows
// repeat a key), and key universes {1/4, 1, 4} times the bucket size at
// 256 rows per bucket. Every cell emits about 2M rows.
//
// Writes BENCH_accumulate.json:
//   cells[]: {bucket_rows, universe, emit_s, close_s, close_ns_per_row,
//             rows_in, rows_out, bytes_per_row}
//
// Exits nonzero when a cell's sealed row count differs from a std::sort +
// unique reference over the same keys. Knobs: CCBT_BENCH_TRIALS (default
// 5 repetitions, best-of).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
#include "ccbt/util/rng.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {
namespace {

int bench_reps() {
  if (const char* env = std::getenv("CCBT_BENCH_TRIALS")) {
    const int t = std::atoi(env);
    if (t > 0) return t;
  }
  return 5;
}

/// One phase's emissions: `buckets` frontier buckets of `bucket_rows`
/// packed keys each, drawn from a key universe of `universe` times the
/// bucket's size.
struct Workload {
  std::vector<std::uint64_t> keys;  // bucket after bucket, packed in layout
  std::size_t bucket_rows = 0;
  KeyLayout layout;

  static Workload make(std::size_t bucket_rows, double universe,
                       std::uint64_t seed) {
    const std::size_t buckets =
        std::max<std::size_t>(1, 2'000'000 / bucket_rows);
    const auto keys_per_bucket = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(universe * bucket_rows));
    Workload w{{},
               bucket_rows,
               KeyLayout::for_vertices(std::max<std::size_t>(buckets, 60'000))};
    Rng rng(seed);
    w.keys.reserve(buckets * bucket_rows);
    for (std::size_t v1 = 0; v1 < buckets; ++v1) {
      for (std::size_t i = 0; i < bucket_rows; ++i) {
        const std::uint64_t x = rng.below(keys_per_bucket);
        TableKey k;
        k.v[0] = static_cast<VertexId>(x * 7919 % 60'000);
        k.v[1] = static_cast<VertexId>(v1);
        k.sig = static_cast<Signature>(x & 0x3F);
        w.keys.push_back(w.layout.pack(k));
      }
    }
    return w;
  }

  /// Distinct keys per bucket, summed: the reference sealed row count.
  std::size_t distinct_rows() const {
    std::size_t total = 0;
    std::vector<std::uint64_t> bucket;
    for (std::size_t lo = 0; lo < keys.size(); lo += bucket_rows) {
      bucket.assign(keys.begin() + lo, keys.begin() + lo + bucket_rows);
      std::sort(bucket.begin(), bucket.end());
      total += static_cast<std::size_t>(
          std::unique(bucket.begin(), bucket.end()) - bucket.begin());
    }
    return total;
  }
};

struct Cell {
  std::size_t bucket_rows = 0;
  double universe = 0.0;
  double emit_s = 1e30;
  double close_s = 1e30;
  std::size_t rows_in = 0;
  std::size_t rows_out = 0;
  double bytes_per_row = 0.0;
};

/// Replay the workload bucket by bucket; emission and close are timed
/// separately and kept as the best of `reps` runs.
void replay(const Workload& w, int reps, Cell& cell) {
  for (int r = 0; r < reps; ++r) {
    SortedBuckets built(w.layout);
    FlatRows scratch(w.layout);
    double emit_s = 0.0;
    double close_s = 0.0;
    for (std::size_t lo = 0; lo < w.keys.size(); lo += w.bucket_rows) {
      scratch.reset();
      Timer emit_timer;
      for (std::size_t i = lo; i < lo + w.bucket_rows; ++i) {
        scratch.append_packed(w.keys[i], 1);
      }
      emit_s += emit_timer.seconds();
      Timer close_timer;
      built.close(scratch);
      close_s += close_timer.seconds();
    }
    cell.emit_s = std::min(cell.emit_s, emit_s);
    cell.close_s = std::min(cell.close_s, close_s);
    cell.rows_in = built.emitted_rows();
    cell.rows_out = built.size();
    cell.bytes_per_row = static_cast<double>(built.emitted_bytes()) /
                         static_cast<double>(built.emitted_rows());
  }
}

}  // namespace
}  // namespace ccbt

int main() {
  using namespace ccbt;
  const int reps = bench_reps();
  const double kDefaultUniverse = 0.75;
  struct Point {
    std::size_t bucket_rows;
    double universe;
  };
  std::vector<Point> points;
  for (const std::size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
    points.push_back({n, kDefaultUniverse});
  }
  for (const double u : {0.25, 1.0, 4.0}) points.push_back({256, u});

  std::printf(
      "Accumulate microbench: born-sorted bucket build (emit + close)\n"
      "%-8s %-8s %10s %10s %12s %9s %9s %7s\n", "rows/bk", "universe",
      "emit ms", "close ms", "close ns/row", "rows in", "rows out", "B/row");
  std::vector<Cell> cells;
  for (const Point& pt : points) {
    const Workload w = Workload::make(pt.bucket_rows, pt.universe, 42);
    Cell c;
    c.bucket_rows = pt.bucket_rows;
    c.universe = pt.universe;
    replay(w, reps, c);
    const std::size_t want = w.distinct_rows();
    if (c.rows_out != want) {
      std::fprintf(stderr, "sealed row mismatch at %zu rows/bucket: %zu, "
                   "reference %zu\n", pt.bucket_rows, c.rows_out, want);
      return 1;
    }
    std::printf("%-8zu %-8.2f %10.2f %10.2f %12.1f %9zu %9zu %7.1f\n",
                c.bucket_rows, c.universe, 1e3 * c.emit_s, 1e3 * c.close_s,
                1e9 * c.close_s / static_cast<double>(c.rows_in), c.rows_in,
                c.rows_out, c.bytes_per_row);
    cells.push_back(c);
  }

  std::FILE* f = std::fopen("BENCH_accumulate.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_accumulate.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"accumulate\",\n  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"bucket_rows\": %zu, \"universe\": %.2f, "
                 "\"emit_s\": %.6f, \"close_s\": %.6f, "
                 "\"close_ns_per_row\": %.2f, \"rows_in\": %zu, "
                 "\"rows_out\": %zu, \"bytes_per_row\": %.2f}%s\n",
                 c.bucket_rows, c.universe, c.emit_s, c.close_s,
                 1e9 * c.close_s / static_cast<double>(c.rows_in), c.rows_in,
                 c.rows_out, c.bytes_per_row,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("BENCH_accumulate.json written\n");
  return 0;
}
