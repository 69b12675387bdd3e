// Accumulate-only microbench: the B = 8 emission + seal hot path in
// isolation (table/flat_rows.hpp), without the estimator noise of the
// full batch bench. Three cells per point, selected the way a sink
// selects them: the probe path (prepare_emit with no vertex domain),
// sharded dense rows (a domain, flip threshold SIZE_MAX) and sharded
// sparse records (a domain, flip threshold 0). The workload replays the extend loop's emission shape —
// same-v1 bursts through the run-bulk API, duplicate keys re-emitted
// across bursts, the frontier pending-register dedup when the sink is
// sparse — at several table sizes and lane densities, then seals kByV1
// exactly as extend_with_graph_grouped does.
//
// Two sweeps share the grid: table size {200k, 1M, 4M} at the Fig 15
// density (~0.15), and lane density {0.05, 0.15, 0.5, 1.0} at 1M
// emissions — the axis the sparse record format trades on (bytes/row
// ~ 9 + 2·occupied vs a fixed 24).
//
// Writes BENCH_accumulate.json:
//   cells[]: {emissions, density, engine, format, accumulate_s, seal_s,
//             rows, bytes_per_row, frontier_folds}
//   headlines: geomean sharded/probe wall ratios per stage on dense rows
//   and geomean sparse/dense wall + bytes-per-row ratios on the sharded
//   path (< 1 means sharded/sparse is smaller/faster).
//
// Exits nonzero when the three cells of a point disagree on the sealed
// row count. Knobs: CCBT_BENCH_TRIALS (default 5 repetitions, best-of).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
#include "ccbt/util/rng.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {
namespace {

constexpr int B = 8;
using Rows = FlatRowsT<B>;
using Row16 = PackedFlatRowT<B, std::uint16_t>;

int bench_reps() {
  if (const char* env = std::getenv("CCBT_BENCH_TRIALS")) {
    const int t = std::atoi(env);
    if (t > 0) return t;
  }
  return 5;
}

std::uint64_t pack(std::uint32_t v0, std::uint32_t v1, std::uint8_t sig) {
  return (std::uint64_t{v0} << 36) | (std::uint64_t{v1} << 8) | sig;
}

/// One synthetic emission stream: `bursts` same-v1 runs of `burst_len`
/// rows each over a `domain`-vertex graph, with duplicate keys arriving
/// both inside a burst and when a later burst revisits the same v1 —
/// the duplicate structure the combining caches exist for. `density`
/// sets the live lanes per emission (max(1, ceil(density · B)),
/// key-anchored so same-key emissions overlap and fold).
struct Workload {
  VertexId domain = 0;
  struct Burst {
    std::uint32_t v1;
    std::uint32_t v0_base;
  };
  std::vector<Burst> bursts;
  std::size_t burst_len = 0;
  LaneMask lane_window = 1;
  double density = 0.0;

  static Workload make(std::size_t emissions, VertexId domain,
                       std::size_t burst_len, double density,
                       std::uint64_t seed) {
    Workload w;
    w.domain = domain;
    w.burst_len = burst_len;
    w.density = density;
    const int lanes = std::clamp(
        static_cast<int>(std::ceil(density * B - 1e-9)), 1, B);
    w.lane_window = static_cast<LaneMask>((1u << lanes) - 1u);
    Rng rng(seed);
    const std::size_t n_bursts = emissions / burst_len;
    w.bursts.reserve(n_bursts);
    for (std::size_t i = 0; i < n_bursts; ++i) {
      // Bursts revisit a v1 with probability ~1/2 (cross-burst dups).
      const std::uint32_t v1 =
          static_cast<std::uint32_t>(rng() % (domain / 2) * 2 % domain);
      const std::uint32_t v0_base =
          static_cast<std::uint32_t>(rng() % domain);
      w.bursts.push_back({v1, v0_base});
    }
    return w;
  }

  /// Key-anchored lane mask: the window rotated by the key's lane seed,
  /// so every emission of one key occupies the same lanes.
  LaneMask mask_for(std::uint32_t v0) const {
    const unsigned s = v0 % B;
    const unsigned wnd = lane_window;
    return static_cast<LaneMask>(((wnd << s) | (wnd >> (B - s))) & 0xFFu);
  }
};

/// One cell's sink configuration: whether prepare_emit gets the vertex
/// domain (sharded) or none (probe), and the dense-to-sparse flip
/// threshold in force.
struct SinkConfig {
  const char* engine;
  const char* format;
  bool sharded;
  std::size_t flip_rows;
};

/// Replay the workload into a fresh sink prepared per `cfg`, mimicking
/// the extend loop: acquire a run handle per burst,
/// run-append when it is valid (sharded), per-row probe append
/// otherwise — and, when the sink is sparse, fold consecutive same-key
/// emissions in a pending register first, exactly as the frontier dedup
/// in extend_with_graph_grouped does. Returns the emit wall; `seal_s`
/// gets the kByV1 sort + merge wall, `tel` the pre-seal telemetry.
double replay(const Workload& w, const SinkConfig& cfg, double* seal_s,
              std::size_t* sealed_rows, AccumTelemetry* tel) {
  const std::size_t saved_flip = sparse_flip_rows();
  set_sparse_flip_rows(cfg.flip_rows);
  Rows t;
  Row16 src;
  for (int l = 0; l < B; ++l) src.c[l] = 1;
  Timer emit_timer;
  t.prepare_emit(cfg.sharded ? w.domain : 0);
  const bool dedup = t.sparse();
  std::uint64_t folds = 0;
  for (const Workload::Burst& b : w.bursts) {
    const auto run = t.run_u16(b.v1, w.burst_len);
    std::uint64_t pend_k = ~std::uint64_t{0};
    Row16 pend;
    LaneMask pend_m = 0;
    auto flush_pend = [&] {
      if (pend_k == ~std::uint64_t{0}) return;
      if (run.valid()) {
        t.run_append_u16(run, pend_k, pend, pend_m);
      } else {
        t.append_masked_u16(pend_k, pend, pend_m);
      }
      pend_k = ~std::uint64_t{0};
    };
    for (std::size_t i = 0; i < w.burst_len; ++i) {
      // In-burst duplicates: every 4th row repeats the previous key.
      const std::uint32_t v0 =
          (b.v0_base + static_cast<std::uint32_t>(i - (i % 4 == 3))) %
          w.domain;
      const std::uint64_t k =
          pack(v0, b.v1, static_cast<std::uint8_t>(v0 & 0x1F));
      const LaneMask m = w.mask_for(v0);
      if (dedup) {
        if (k == pend_k) {
          bool ok = true;
          for (int l = 0; l < B && ok; ++l) {
            ok = std::uint32_t{pend.c[l]} +
                     (((m >> l) & 1) != 0 ? src.c[l] : 0) <=
                 0xFFFFu;
          }
          if (ok) {
            for (int l = 0; l < B; ++l) {
              pend.c[l] = static_cast<std::uint16_t>(
                  pend.c[l] + (((m >> l) & 1) != 0 ? src.c[l] : 0));
            }
            pend_m |= m;
            ++folds;
            continue;
          }
        }
        flush_pend();
        pend_k = k;
        pend.k = k;
        pend_m = m;
        for (int l = 0; l < B; ++l) {
          pend.c[l] = ((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0};
        }
      } else if (run.valid()) {
        t.run_append_u16(run, k, src, m);
      } else {
        t.append_masked_u16(k, src, m);
      }
    }
    flush_pend();
  }
  if (folds != 0) t.note_frontier_folds(folds);
  const double emit_s = emit_timer.seconds();
  t.collect_telemetry(*tel);
  Timer seal_timer;
  const bool ok = t.sort_by_slot(1, w.domain);
  t.merge_duplicates();
  *seal_s = seal_timer.seconds();
  *sealed_rows = t.size();
  if (!ok) std::fprintf(stderr, "seal fell back to dense path!\n");
  set_sparse_flip_rows(saved_flip);
  return emit_s;
}

struct Cell {
  std::size_t emissions;
  double density;
  const char* engine;
  const char* format;
  double accumulate_s = 0.0;
  double seal_s = 0.0;
  std::size_t rows = 0;
  double bytes_per_row = 0.0;
  std::uint64_t frontier_folds = 0;
};

double geomean(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

}  // namespace
}  // namespace ccbt

int main() {
  using namespace ccbt;
  const int reps = bench_reps();
  const double kFig15Density = 0.15;
  // Shared grid: the size sweep runs at the Fig 15 density, the density
  // sweep at the middle size.
  struct Point {
    std::size_t emissions;
    double density;
  };
  std::vector<Point> points;
  for (const std::size_t e : {200'000u, 1'000'000u, 4'000'000u}) {
    points.push_back({e, kFig15Density});
  }
  for (const double d : {0.05, 0.5, 1.0}) points.push_back({1'000'000, d});
  const VertexId domain = 60'000;
  const std::size_t burst_len = 48;

  std::printf(
      "Accumulate microbench: B=8 same-v1 burst emission + kByV1 seal\n"
      "%-10s %-8s %-8s %-7s %10s %10s %10s %9s %7s %9s\n", "emissions",
      "density", "engine", "format", "accum ms", "seal ms", "total ms",
      "rows", "B/row", "folds");
  std::vector<Cell> cells;
  std::vector<double> accum_ratios, seal_ratios, total_ratios;
  std::vector<double> sp_accum_ratios, sp_seal_ratios, sp_total_ratios;
  std::vector<double> sp_bytes_ratios;
  constexpr std::size_t kNeverFlip = std::numeric_limits<std::size_t>::max();
  const SinkConfig configs[3] = {{"probe", "dense", false, kNeverFlip},
                                 {"sharded", "dense", true, kNeverFlip},
                                 {"sharded", "sparse", true, 0}};
  enum { kProbe = 0, kDense = 1, kSparse = 2 };
  for (const Point& pt : points) {
    const Workload w =
        Workload::make(pt.emissions, domain, burst_len, pt.density, 42);
    double best[3][2];  // [config][stage] best-of-reps
    std::size_t rows[3] = {0, 0, 0};
    double bpr[3] = {0.0, 0.0, 0.0};
    std::uint64_t folds[3] = {0, 0, 0};
    for (int ci = 0; ci < 3; ++ci) {
      best[ci][0] = best[ci][1] = 1e30;
      for (int r = 0; r < reps; ++r) {
        double seal = 0.0;
        std::size_t sealed = 0;
        AccumTelemetry tel;
        const double emit = replay(w, configs[ci], &seal, &sealed, &tel);
        best[ci][0] = std::min(best[ci][0], emit);
        best[ci][1] = std::min(best[ci][1], seal);
        rows[ci] = sealed;
        bpr[ci] = tel.bytes_per_row();
        folds[ci] = tel.frontier_folds;
      }
      Cell c;
      c.emissions = pt.emissions;
      c.density = pt.density;
      c.engine = configs[ci].engine;
      c.format = configs[ci].format;
      c.accumulate_s = best[ci][0];
      c.seal_s = best[ci][1];
      c.rows = rows[ci];
      c.bytes_per_row = bpr[ci];
      c.frontier_folds = folds[ci];
      cells.push_back(c);
      std::printf(
          "%-10zu %-8.2f %-8s %-7s %10.2f %10.2f %10.2f %9zu %7.1f "
          "%9" PRIu64 "\n",
          pt.emissions, pt.density, c.engine, c.format,
          1e3 * c.accumulate_s, 1e3 * c.seal_s,
          1e3 * (c.accumulate_s + c.seal_s), c.rows, c.bytes_per_row,
          c.frontier_folds);
    }
    if (rows[kProbe] != rows[kDense] || rows[kDense] != rows[kSparse]) {
      std::fprintf(stderr,
                   "sealed row mismatch: probe %zu sharded dense %zu "
                   "sharded sparse %zu\n",
                   rows[kProbe], rows[kDense], rows[kSparse]);
      return 1;
    }
    auto ratios = [&](int num, int den, std::vector<double>& accum,
                      std::vector<double>& seal, std::vector<double>& total) {
      accum.push_back(best[num][0] / best[den][0]);
      seal.push_back(best[num][1] / best[den][1]);
      total.push_back((best[num][0] + best[num][1]) /
                      (best[den][0] + best[den][1]));
    };
    ratios(kDense, kProbe, accum_ratios, seal_ratios, total_ratios);
    ratios(kSparse, kDense, sp_accum_ratios, sp_seal_ratios, sp_total_ratios);
    sp_bytes_ratios.push_back(bpr[kSparse] / bpr[kDense]);
  }

  const double gm_accum = geomean(accum_ratios);
  const double gm_seal = geomean(seal_ratios);
  const double gm_total = geomean(total_ratios);
  const double gm_sp_accum = geomean(sp_accum_ratios);
  const double gm_sp_seal = geomean(sp_seal_ratios);
  const double gm_sp_total = geomean(sp_total_ratios);
  const double gm_sp_bytes = geomean(sp_bytes_ratios);
  std::printf(
      "\nsharded/probe wall ratios, dense (geomean; < 1 = sharded "
      "faster):\n"
      "  accumulate %.3f   seal %.3f   total %.3f\n"
      "sparse/dense ratios, sharded (geomean; < 1 = sparse "
      "smaller/faster):\n"
      "  accumulate %.3f   seal %.3f   total %.3f   bytes/row %.3f\n",
      gm_accum, gm_seal, gm_total, gm_sp_accum, gm_sp_seal, gm_sp_total,
      gm_sp_bytes);

  std::FILE* f = std::fopen("BENCH_accumulate.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_accumulate.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"accumulate\",\n"
               "  \"sharded_over_probe_accumulate\": %.3f,\n"
               "  \"sharded_over_probe_seal\": %.3f,\n"
               "  \"sharded_over_probe_total\": %.3f,\n"
               "  \"sparse_over_dense_accumulate\": %.3f,\n"
               "  \"sparse_over_dense_seal\": %.3f,\n"
               "  \"sparse_over_dense_total\": %.3f,\n"
               "  \"sparse_over_dense_bytes_per_row\": %.3f,\n"
               "  \"cells\": [\n",
               gm_accum, gm_seal, gm_total, gm_sp_accum, gm_sp_seal,
               gm_sp_total, gm_sp_bytes);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"emissions\": %zu, \"density\": %.2f, "
                 "\"engine\": \"%s\", \"format\": \"%s\", "
                 "\"accumulate_s\": %.6f, \"seal_s\": %.6f, "
                 "\"rows\": %zu, \"bytes_per_row\": %.2f, "
                 "\"frontier_folds\": %" PRIu64 "}%s\n",
                 c.emissions, c.density, c.engine, c.format,
                 c.accumulate_s, c.seal_s, c.rows, c.bytes_per_row,
                 c.frontier_folds, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("BENCH_accumulate.json written\n");
  return 0;
}
