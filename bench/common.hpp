#pragma once
// Shared plumbing for the figure-regeneration benches.
//
// Every bench binary runs with no arguments and bounded time. The
// environment variable CCBT_BENCH_SCALE (default 0.10) scales the stand-in
// graphs; raise it toward 1.0 to run closer to the paper's sizes.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "ccbt/bench_support/workloads.hpp"
#include "ccbt/core/ccbt.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/stats.hpp"
#include "ccbt/util/text_table.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("CCBT_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 0.10;
}

/// Entry budget for PS runs; cells that blow past it are reported DNF,
/// mirroring the blank cells of Fig 10.
inline std::size_t bench_budget() {
  if (const char* env = std::getenv("CCBT_BENCH_BUDGET")) {
    const long long b = std::atoll(env);
    if (b > 0) return static_cast<std::size_t>(b);
  }
  return 6'000'000;
}

struct CellResult {
  bool ok = false;
  Count colorful = 0;
  double wall = 0.0;      // seconds, real execution
  double sim = 0.0;       // unitless BSP makespan (when ranks > 0)
  std::uint64_t total_ops = 0;
  std::uint64_t max_rank_ops = 0;
  double avg_rank_ops = 0.0;
};

/// One (graph, query, algo, ranks) cell; DNF (budget blowout) -> ok=false.
inline CellResult run_cell(const CsrGraph& g, const QueryGraph& q,
                           const Plan& plan, Algo algo, std::uint32_t ranks,
                           std::uint64_t color_seed) {
  CellResult r;
  ExecOptions opts;
  opts.algo = algo;
  opts.sim_ranks = ranks;
  opts.max_table_entries = bench_budget();
  try {
    CountingSession session(g, q, plan, opts);
    const ExecStats stats = session.count_colorful_seeded(color_seed);
    r.ok = true;
    r.colorful = stats.colorful;
    r.wall = stats.wall_seconds;
    r.sim = stats.sim_time;
    r.total_ops = stats.total_ops;
    r.max_rank_ops = stats.max_rank_ops;
    r.avg_rank_ops = stats.avg_rank_ops;
  } catch (const BudgetExceeded&) {
    r.ok = false;
  }
  return r;
}

inline std::string fmt_or_dnf(bool ok, double v, int precision = 2) {
  return ok ? TextTable::num(v, precision) : std::string("DNF");
}

/// The benchmark grid: all ten Table 1 stand-ins at the bench scale.
inline std::vector<std::pair<std::string, CsrGraph>> load_grid(
    double scale, std::uint64_t seed = 42) {
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  for (const std::string& name : workload_names()) {
    graphs.emplace_back(name, make_workload(name, scale, seed));
  }
  return graphs;
}

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "==============================================================="
               "=\n"
            << title << "\n"
            << what << "\n"
            << "scale=" << bench_scale() << " budget=" << bench_budget()
            << " entries (set CCBT_BENCH_SCALE / CCBT_BENCH_BUDGET)\n"
            << "==============================================================="
               "=\n";
}

}  // namespace ccbt::bench
