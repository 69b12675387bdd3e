// Batched multi-coloring execution vs. one-coloring-at-a-time: the Fig 15
// estimator workload (repeated independent colorings of the same plan),
// re-run at batch widths 1, 2, 4 and 8. A plan execution runs its
// colorings one after another through the single-coloring code, so every
// width does the same work per trial. Reports, per cell,
//   * the amortized per-trial wall time and its speedup over B = 1
//     (shared-memory engine), which should stay near 1, and
//   * the amortized per-trial transport volume and supersteps of the
//     virtual-MPI engine, which equal B = 1's.
// Both also report minor page faults per plan execution (getrusage
// ru_minflt over the timed calls): reported only, since the cost of a
// fault depends on the machine.
// Every width's per-lane colorful counts are verified against the B = 1
// baseline. Writes BENCH_batch.json so successive PRs can track both
// trajectories mechanically.
//
// Knobs: CCBT_BENCH_SCALE (graph sizes), CCBT_BENCH_TRIALS (trials per
// cell, default 16), CCBT_BENCH_BATCH (max width, default 8).

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "ccbt/dist/dist_engine.hpp"
#include "common.hpp"

namespace {

using namespace ccbt;
using namespace ccbt::bench;

int bench_trials() {
  if (const char* env = std::getenv("CCBT_BENCH_TRIALS")) {
    const int t = std::atoi(env);
    if (t > 0) return t;
  }
  return 16;
}

int bench_max_batch() {
  if (const char* env = std::getenv("CCBT_BENCH_BATCH")) {
    const int b = std::atoi(env);
    if (b > 0) return b;
  }
  return 8;
}

/// Minor page faults the process has taken so far.
std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// Plan executions estimate_matches runs for `trials` trials at batch cap
/// `width`: batches of min(width, kMaxBatchLanes), the last one short.
int estimator_executions(int trials, int width) {
  const int w = std::min(width, kMaxBatchLanes);
  return (trials + w - 1) / w;
}

/// Minor page faults over a cell's timed plan executions.
struct Faults {
  std::uint64_t faults = 0;
  std::uint64_t execs = 0;

  double per_exec() const {
    return execs == 0 ? 0.0
                      : static_cast<double>(faults) /
                            static_cast<double>(execs);
  }
};

struct Cell {
  std::string graph;
  std::string query;
  int width = 1;
  int trials = 0;
  double wall = 0.0;          // seconds, whole estimator run
  double per_trial_ms = 0.0;  // amortized
  double speedup = 1.0;       // vs the B = 1 baseline on the same cell
  bool lanes_match = true;    // per-trial counts identical to baseline
  // Lane-layout telemetry sampled from one batched execution (B > 1).
  double lane_density = 0.0;
  double packed_share = 0.0;  // packed rows / rows observed
  std::array<std::uint64_t, 3> width_hist{};  // packed rows per u16/u32/u64
  // Per-stage wall breakdown summed over the cell's plan executions.
  StageWall stage;
  // Accumulate-stage wall vs the B = 1 cell of the same (graph, query):
  // at B > 1 the stage includes the per-bucket sorts (B > 1 only).
  double accum_ratio = 0.0;
  // Accumulation telemetry sampled from the same execution as the
  // lane-layout fields: phases and the rows and bytes they emitted.
  AccumTelemetry accum;
  Faults faults;
};

struct WireCell {
  std::string graph;
  std::string query;
  int width = 1;
  double bytes_per_trial = 0.0;
  double steps_per_trial = 0.0;
  double bytes_ratio = 1.0;  // B = 1 bytes / this width's bytes
  bool lanes_match = true;
  // Per-stage wall breakdown summed over the cell's distributed runs.
  StageWall stage;
  Faults faults;
};

/// Minor page faults per plan execution over the cells of `width`.
template <typename C>
double faults_per_exec(const std::vector<C>& cells, int width) {
  Faults sum;
  for (const C& c : cells) {
    if (c.width != width) continue;
    sum.faults += c.faults.faults;
    sum.execs += c.faults.execs;
  }
  return sum.per_exec();
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

}  // namespace

int main() {
  print_header("Batched colorings — amortized estimator cost vs B = 1",
               "one plan execution carries B colorings, run one after "
               "another");
  const int trials = bench_trials();
  const int max_batch = bench_max_batch();
  std::vector<int> widths{1};
  for (int w : {2, 4, 8}) {
    if (w <= max_batch) widths.push_back(w);
  }

  // Fig 15 estimator workload: repeated-coloring estimation on the cheap
  // Table 1 stand-ins, over the small (k <= 8 colors) figure-8 queries —
  // the regime the estimator actually runs in (Section 8.6).
  const std::vector<std::string> graph_names{"condMat", "astroph",
                                             "brightkite"};
  std::vector<QueryGraph> queries{q_glet2(), q_wiki(), q_youtube(),
                                  q_dros()};

  std::vector<Cell> cells;
  TextTable t({"graph", "query", "B", "trials", "wall s", "ms/trial",
               "speedup", "lanes"});
  for (const std::string& gname : graph_names) {
    const CsrGraph g = make_workload(gname, bench_scale());
    for (const QueryGraph& q : queries) {
      EstimatorOptions base;
      base.trials = trials;
      base.seed = 17;
      base.exec.algo = Algo::kDB;
      base.exec.max_table_entries = bench_budget();
      CountingSession session(g, q, make_plan(q), base.exec);

      std::vector<Count> baseline_counts;
      double baseline_per_trial = 0.0;
      StageWall baseline_stage;
      for (const int width : widths) {
        EstimatorOptions opts = base;
        opts.batch = width;
        Cell cell;
        cell.graph = gname;
        cell.query = q.name();
        cell.width = width;
        cell.trials = trials;
        try {
          {
            // One untimed execution before the timed run: it warms this
            // width's code paths and allocator state (without it the
            // first cell at each width pays the process's cold start),
            // and it samples the lane-layout telemetry and the
            // accumulation telemetry (the estimator API reports counts,
            // not telemetry). B = 1 too: its bucket builds report
            // emit_bytes, the denominator of the emission byte-traffic
            // headline.
            std::vector<std::uint64_t> seeds;
            for (int l = 0; l < width; ++l) seeds.push_back(1000 + l);
            const ExecStats sample = session.count_colorful_seeded(
                std::span<const std::uint64_t>(seeds.data(), seeds.size()));
            cell.accum = sample.accum;
            if (width > 1) {
              cell.lane_density = sample.lanes.density();
              cell.packed_share =
                  sample.lanes.rows == 0
                      ? 0.0
                      : static_cast<double>(sample.lanes.rows_packed) /
                            static_cast<double>(sample.lanes.rows);
              cell.width_hist = sample.lanes.width_rows;
            }
          }
          const std::uint64_t faults_before = minor_faults();
          Timer timer;
          const EstimatorResult r = estimate_matches(session, opts);
          cell.wall = timer.seconds();
          cell.faults = {minor_faults() - faults_before,
                         static_cast<std::uint64_t>(
                             estimator_executions(trials, width))};
          cell.per_trial_ms = 1e3 * cell.wall / trials;
          cell.stage = r.stage;
          if (width == 1) {
            baseline_counts = r.colorful_per_trial;
            baseline_per_trial = cell.per_trial_ms;
            baseline_stage = cell.stage;
          } else {
            cell.speedup = baseline_per_trial / cell.per_trial_ms;
            cell.lanes_match = (r.colorful_per_trial == baseline_counts);
            cell.accum_ratio = baseline_stage.accumulate > 0.0
                                   ? cell.stage.accumulate /
                                         baseline_stage.accumulate
                                   : 0.0;
          }
          t.add_row({gname, q.name(), TextTable::num(std::uint64_t(width)),
                     TextTable::num(std::uint64_t(trials)),
                     TextTable::num(cell.wall, 3),
                     TextTable::num(cell.per_trial_ms, 3),
                     width == 1 ? "1.00x"
                                : TextTable::num(cell.speedup, 2) + "x",
                     cell.lanes_match ? "exact" : "MISMATCH"});
          cells.push_back(cell);
        } catch (const BudgetExceeded&) {
          t.add_row({gname, q.name(), TextTable::num(std::uint64_t(width)),
                     "-", "DNF", "-", "-", "-"});
        }
      }
    }
  }
  t.print(std::cout);

  bool all_match = true;
  double gm_wall8 = 0.0;
  std::printf("\nWall-time amortization (geomean over cells):\n");
  for (const int width : widths) {
    if (width == 1) continue;
    std::vector<double> xs;
    for (const Cell& c : cells) {
      if (c.width != width) continue;
      xs.push_back(c.speedup);
      all_match = all_match && c.lanes_match;
    }
    const double gm = geomean(xs);
    if (width == 8) gm_wall8 = gm;
    std::printf("  B=%d: %.2fx per-trial wall speedup over B=1\n", width, gm);
  }

  // Per-stage totals over all cells (same trial count per width): which
  // stage pays for — or banks — the batching.
  StageWall stage_b1, stage_b8;
  std::printf("\nPer-stage wall summed over cells (seconds):\n");
  for (const int width : widths) {
    StageWall sum;
    for (const Cell& c : cells) {
      if (c.width == width) sum.add(c.stage);
    }
    if (width == 1) stage_b1 = sum;
    if (width == 8) stage_b8 = sum;
    std::printf(
        "  B=%d: accumulate %.3f  seal %.3f  merge %.3f  (staged %.3f)\n",
        width, sum.accumulate, sum.seal, sum.merge, sum.total());
  }
  if (stage_b1.accumulate > 0.0 && stage_b1.seal > 0.0) {
    std::printf("  B=8 over B=1: accumulate %.2fx, seal %.2fx\n",
                stage_b8.accumulate / stage_b1.accumulate,
                stage_b8.seal / stage_b1.seal);
  }

  // Emission byte traffic per trial, B = 8 vs 8 × B = 1: what the
  // accumulation phases materialize before sealing (telemetry sampled
  // one execution per cell; an execution carries `width` trials).
  double emit_b1 = 0.0, emit_b8 = 0.0;
  for (const Cell& c : cells) {
    const double per_trial = static_cast<double>(c.accum.emit_bytes) /
                             static_cast<double>(c.width);
    if (c.width == 1) emit_b1 += per_trial;
    if (c.width == 8) emit_b8 += per_trial;
  }
  const double emit_ratio = emit_b1 > 0.0 ? emit_b8 / emit_b1 : 0.0;
  std::printf("  emission bytes/trial B=8 over B=1: %.2fx\n", emit_ratio);

  // ------------------------------------------------------------- wire
  // The virtual-MPI engine, same trials: each coloring of a batch runs
  // its own supersteps (Section 7's transport), so the per-trial wire
  // volume and superstep count match B = 1's.
  std::printf("\nVirtual-MPI transport per trial (ranks=4, %d trials):\n",
              trials);
  TextTable wt({"graph", "query", "B", "KB/trial", "steps/trial",
                "bytes ratio", "lanes"});
  std::vector<WireCell> wire;
  const std::string wire_graph = "condMat";
  const CsrGraph gw = make_workload(wire_graph, bench_scale());
  for (const QueryGraph& q : queries) {
    ExecOptions opts;
    opts.algo = Algo::kDB;
    opts.max_table_entries = bench_budget();
    const Plan plan = make_plan(q);
    Rng seeder(17);
    std::vector<Coloring> colorings;
    for (int i = 0; i < trials; ++i) {
      colorings.emplace_back(gw.num_vertices(), q.num_nodes(), seeder());
    }
    std::vector<Count> base_counts;
    double base_bytes = 0.0;
    for (const int width : widths) {
      if (trials % width != 0) continue;
      double bytes = 0.0, steps = 0.0;
      StageWall stage_sum;
      std::vector<Count> counts;
      bool ok = true;
      const std::uint64_t faults_before = minor_faults();
      try {
        for (int i = 0; i < trials; i += width) {
          const ColoringBatch batch(
              std::span<const Coloring>(colorings.data() + i, width));
          const DistStats s =
              run_plan_distributed(gw, plan.tree, batch, 4, opts);
          bytes += static_cast<double>(s.transport.off_rank_bytes());
          steps += static_cast<double>(s.transport.supersteps);
          stage_sum.add(s.stage);
          for (int l = 0; l < width; ++l) {
            counts.push_back(s.colorful_lane[l]);
          }
        }
      } catch (const BudgetExceeded&) {
        ok = false;
      }
      if (!ok) {
        wt.add_row({wire_graph, q.name(), TextTable::num(std::uint64_t(width)),
                    "DNF", "-", "-", "-"});
        continue;
      }
      WireCell c;
      c.faults = {minor_faults() - faults_before,
                  static_cast<std::uint64_t>(trials / width)};
      c.graph = wire_graph;
      c.query = q.name();
      c.width = width;
      c.bytes_per_trial = bytes / trials;
      c.steps_per_trial = steps / trials;
      c.stage = stage_sum;
      if (width == 1) {
        base_counts = counts;
        base_bytes = c.bytes_per_trial;
      } else {
        c.bytes_ratio = base_bytes / c.bytes_per_trial;
        c.lanes_match = (counts == base_counts);
      }
      wire.push_back(c);
      wt.add_row({wire_graph, q.name(), TextTable::num(std::uint64_t(width)),
                  TextTable::num(c.bytes_per_trial / 1024.0, 1),
                  TextTable::num(c.steps_per_trial, 1),
                  c.width == 1 ? "1.00x"
                               : TextTable::num(c.bytes_ratio, 2) + "x",
                  c.lanes_match ? "exact" : "MISMATCH"});
    }
  }
  wt.print(std::cout);

  // Distributed B = 8 seal share: seal wall over the summed stage wall of
  // the B = 8 wire cells. No table is sorted there: the seal stage holds
  // only the bucket indexes the per-rank sink tables build (transposes
  // and replicas are timed under transport).
  StageWall dist_b8;
  for (const WireCell& c : wire) {
    if (c.width == 8) dist_b8.add(c.stage);
  }
  const double dist_seal_share_b8 =
      dist_b8.total() > 0.0 ? dist_b8.seal / dist_b8.total() : 0.0;
  std::printf("distributed B=8 seal share of stage wall: %.3f\n",
              dist_seal_share_b8);

  double gm_wire8 = 0.0;
  double gm_steps8 = 0.0;
  for (const int width : widths) {
    if (width == 1) continue;
    std::vector<double> xs, ss;
    for (const WireCell& c : wire) {
      if (c.width == 1) continue;
      if (c.width != width) continue;
      xs.push_back(c.bytes_ratio);
      all_match = all_match && c.lanes_match;
    }
    for (const WireCell& base : wire) {
      if (base.width != 1) continue;
      for (const WireCell& c : wire) {
        if (c.width == width && c.query == base.query) {
          ss.push_back(base.steps_per_trial / c.steps_per_trial);
        }
      }
    }
    if (xs.empty()) continue;
    const double gm = geomean(xs);
    const double gs = geomean(ss);
    if (width == 8) {
      gm_wire8 = gm;
      gm_steps8 = gs;
    }
    std::printf(
        "  B=%d: supersteps ratio %.2fx, wire bytes ratio %.2fx per trial\n",
        width, gs, gm);
  }
  std::printf(
      "(ratios are B = 1 over B; a batch runs its colorings one after\n"
      " another, so both read 1.00: B > 1 moves what B = 1 moves)\n");
  std::printf("per-lane counts vs baseline: %s\n",
              all_match ? "exact" : "MISMATCH");

  std::FILE* f = std::fopen("BENCH_batch.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_batch.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"batch_colorings\",\n"
               "  \"trials\": %d,\n"
               "  \"scale\": %.3f,\n"
               "  \"geomean_wall_speedup_b8\": %.3f,\n"
               "  \"geomean_wire_ratio_b8\": %.3f,\n"
               "  \"geomean_steps_ratio_b8\": %.3f,\n"
               "  \"seal_wall_b8_over_b1\": %.3f,\n"
               "  \"accumulate_wall_b8_over_b1\": %.3f,\n"
               "  \"dist_seal_share_b8\": %.4f,\n"
               "  \"minor_faults_per_exec\": {\"shared_b1\": %.1f, "
               "\"shared_b8\": %.1f, \"dist_b1\": %.1f, "
               "\"dist_b8\": %.1f},\n"
               "  \"emit_bytes_per_trial_b8_over_b1\": %.3f,\n"
               "  \"wire_b8_beats_b1\": %s,\n"
               "  \"lanes_match\": %s,\n"
               "  \"stage_seconds_b1\": {\"accumulate\": %.6f, "
               "\"seal\": %.6f, \"merge\": %.6f, \"transport\": %.6f},\n"
               "  \"stage_seconds_b8\": {\"accumulate\": %.6f, "
               "\"seal\": %.6f, \"merge\": %.6f, \"transport\": %.6f},\n"
               "  \"cells\": [\n",
               trials, bench_scale(), gm_wall8, gm_wire8, gm_steps8,
               stage_b1.seal > 0.0 ? stage_b8.seal / stage_b1.seal : 0.0,
               stage_b1.accumulate > 0.0
                   ? stage_b8.accumulate / stage_b1.accumulate
                   : 0.0,
               dist_seal_share_b8, faults_per_exec(cells, 1),
               faults_per_exec(cells, 8), faults_per_exec(wire, 1),
               faults_per_exec(wire, 8), emit_ratio,
               gm_wire8 > 1.0 ? "true" : "false",
               all_match ? "true" : "false", stage_b1.accumulate,
               stage_b1.seal, stage_b1.merge, stage_b1.transport,
               stage_b8.accumulate, stage_b8.seal, stage_b8.merge,
               stage_b8.transport);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"graph\": \"%s\", \"query\": \"%s\", \"B\": %d, "
        "\"wall_s\": %.6f, \"ms_per_trial\": %.4f, "
        "\"speedup\": %.3f, \"lanes_match\": %s, "
        "\"lane_density\": %.4f, \"packed_row_share\": %.4f, "
        "\"packed_width_hist\": {\"u16\": %llu, \"u32\": %llu, "
        "\"u64\": %llu}, "
        "\"stage\": {\"accumulate\": %.6f, \"seal\": %.6f, "
        "\"merge\": %.6f}, "
        "\"accumulate_wall_over_b1\": %.3f, "
        "\"accum\": {\"phases\": %llu, \"rows\": %llu, "
        "\"emit_bytes\": %llu, \"bytes_per_row\": %.2f}, "
        "\"minor_faults_per_exec\": %.1f}%s\n",
        c.graph.c_str(), c.query.c_str(), c.width, c.wall, c.per_trial_ms,
        c.speedup, c.lanes_match ? "true" : "false", c.lane_density,
        c.packed_share,
        static_cast<unsigned long long>(c.width_hist[0]),
        static_cast<unsigned long long>(c.width_hist[1]),
        static_cast<unsigned long long>(c.width_hist[2]),
        c.stage.accumulate, c.stage.seal, c.stage.merge, c.accum_ratio,
        static_cast<unsigned long long>(c.accum.phases),
        static_cast<unsigned long long>(c.accum.rows),
        static_cast<unsigned long long>(c.accum.emit_bytes),
        c.accum.bytes_per_row(),
        c.faults.per_exec(),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"wire_cells\": [\n");
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const WireCell& c = wire[i];
    std::fprintf(
        f,
        "    {\"graph\": \"%s\", \"query\": \"%s\", \"B\": %d, "
        "\"bytes_per_trial\": %.1f, \"steps_per_trial\": %.2f, "
        "\"bytes_ratio\": %.3f, \"lanes_match\": %s, "
        "\"stage\": {\"accumulate\": %.6f, \"seal\": %.6f, "
        "\"merge\": %.6f, \"transport\": %.6f}, "
        "\"minor_faults_per_exec\": %.1f}%s\n",
        c.graph.c_str(), c.query.c_str(), c.width, c.bytes_per_trial,
        c.steps_per_trial, c.bytes_ratio, c.lanes_match ? "true" : "false",
        c.stage.accumulate, c.stage.seal, c.stage.merge, c.stage.transport,
        c.faults.per_exec(),
        i + 1 < wire.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf(
      "BENCH_batch.json written: B=8 wall %.2fx, wire %.2fx, steps %.1fx\n",
      gm_wall8, gm_wire8, gm_steps8);
  return 0;
}
