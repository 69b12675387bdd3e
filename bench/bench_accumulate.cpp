// Accumulate-only microbench: the B = 8 born-sorted bucket build in
// isolation (table/flat_rows.hpp), without the estimator noise of the full
// batch bench. Each cell replays one phase's emission shape — buckets of
// masked u16 rows with duplicate keys, appended to a per-bucket scratch
// exactly as the path primitives do — and closes every bucket through
// SortedBucketsT (local sort + exact run sums).
//
// Two sweeps share the grid: rows per bucket {16, 64, 256, 1024, 4096} at
// the Fig 15 lane density (~0.15), and lane density {0.05, 0.5, 1.0} at
// 256 rows per bucket. Every cell emits about 2M rows.
//
// Writes BENCH_accumulate.json:
//   cells[]: {bucket_rows, density, emit_s, close_s, close_ns_per_row,
//             rows_in, rows_out, bytes_per_row}
//
// Exits nonzero when a cell's sealed row count differs from a std::sort +
// unique reference over the same keys. Knobs: CCBT_BENCH_TRIALS (default
// 5 repetitions, best-of).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
#include "ccbt/util/rng.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {
namespace {

constexpr int B = 8;
using Row16 = PackedFlatRowT<B, std::uint16_t>;

int bench_reps() {
  if (const char* env = std::getenv("CCBT_BENCH_TRIALS")) {
    const int t = std::atoi(env);
    if (t > 0) return t;
  }
  return 5;
}

/// One phase's emissions: `buckets` frontier buckets of `bucket_rows`
/// packed keys each, drawn from a key universe 3/4 the bucket's size (so
/// about a third of the rows repeat a key), with max(1, ceil(density·B))
/// live lanes anchored to the key.
struct Workload {
  std::vector<std::uint64_t> keys;  // bucket after bucket
  std::size_t bucket_rows = 0;
  LaneMask lane_window = 1;

  static Workload make(std::size_t bucket_rows, double density,
                       std::uint64_t seed) {
    Workload w;
    w.bucket_rows = bucket_rows;
    const int lanes = std::clamp(
        static_cast<int>(std::ceil(density * B - 1e-9)), 1, B);
    w.lane_window = static_cast<LaneMask>((1u << lanes) - 1u);
    const std::size_t buckets =
        std::max<std::size_t>(1, 2'000'000 / bucket_rows);
    const std::uint64_t universe = std::max<std::size_t>(1, bucket_rows * 3 / 4);
    Rng rng(seed);
    w.keys.reserve(buckets * bucket_rows);
    for (std::size_t v1 = 0; v1 < buckets; ++v1) {
      for (std::size_t i = 0; i < bucket_rows; ++i) {
        const std::uint64_t x = rng.below(universe);
        const std::uint64_t v0 = x * 7919 % 60'000;
        w.keys.push_back((v0 << 36) | (v1 << 8) | (x & 0x3F));
      }
    }
    return w;
  }

  /// Key-anchored lane mask: the window rotated by the key's lane seed,
  /// so every emission of one key occupies the same lanes.
  LaneMask mask_for(std::uint64_t k) const {
    const unsigned s = static_cast<unsigned>(k >> 36) % B;
    const unsigned wnd = lane_window;
    return static_cast<LaneMask>(((wnd << s) | (wnd >> (B - s))) & 0xFFu);
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
  double density = 0.0;
  double emit_s = 1e30;
  double close_s = 1e30;
  std::size_t rows_in = 0;
  std::size_t rows_out = 0;
  double bytes_per_row = 0.0;
};

/// Replay the workload bucket by bucket; emission and close are timed
/// separately and kept as the best of `reps` runs.
void replay(const Workload& w, int reps, Cell& cell) {
  Row16 src;
  src.c.fill(1);
  for (int r = 0; r < reps; ++r) {
    SortedBucketsT<B> built;
    FlatRowsT<B> scratch;
    double emit_s = 0.0;
    double close_s = 0.0;
    for (std::size_t lo = 0; lo < w.keys.size(); lo += w.bucket_rows) {
      scratch.reset();
      Timer emit_timer;
      for (std::size_t i = lo; i < lo + w.bucket_rows; ++i) {
        scratch.append_masked_u16(w.keys[i], src, w.mask_for(w.keys[i]));
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
  const double kFig15Density = 0.15;
  struct Point {
    std::size_t bucket_rows;
    double density;
  };
  std::vector<Point> points;
  for (const std::size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
    points.push_back({n, kFig15Density});
  }
  for (const double d : {0.05, 0.5, 1.0}) points.push_back({256, d});

  std::printf(
      "Accumulate microbench: B=8 born-sorted bucket build (emit + close)\n"
      "%-8s %-8s %10s %10s %12s %9s %9s %7s\n", "rows/bk", "density",
      "emit ms", "close ms", "close ns/row", "rows in", "rows out", "B/row");
  std::vector<Cell> cells;
  for (const Point& pt : points) {
    const Workload w = Workload::make(pt.bucket_rows, pt.density, 42);
    Cell c;
    c.bucket_rows = pt.bucket_rows;
    c.density = pt.density;
    replay(w, reps, c);
    const std::size_t want = w.distinct_rows();
    if (c.rows_out != want) {
      std::fprintf(stderr, "sealed row mismatch at %zu rows/bucket: %zu, "
                   "reference %zu\n", pt.bucket_rows, c.rows_out, want);
      return 1;
    }
    std::printf("%-8zu %-8.2f %10.2f %10.2f %12.1f %9zu %9zu %7.1f\n",
                c.bucket_rows, c.density, 1e3 * c.emit_s, 1e3 * c.close_s,
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
                 "    {\"bucket_rows\": %zu, \"density\": %.2f, "
                 "\"emit_s\": %.6f, \"close_s\": %.6f, "
                 "\"close_ns_per_row\": %.2f, \"rows_in\": %zu, "
                 "\"rows_out\": %zu, \"bytes_per_row\": %.2f}%s\n",
                 c.bucket_rows, c.density, c.emit_s, c.close_s,
                 1e9 * c.close_s / static_cast<double>(c.rows_in), c.rows_in,
                 c.rows_out, c.bytes_per_row,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("BENCH_accumulate.json written\n");
  return 0;
}
