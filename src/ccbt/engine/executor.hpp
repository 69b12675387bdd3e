#pragma once
// Bottom-up traversal of the decomposition tree (Fig 3, "Overall
// Algorithm"): solve each block from its children's projection tables;
// the root emits the number of colorful matches — per lane, when the
// context carries a multi-coloring batch.

#include <array>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/exec_context.hpp"

namespace ccbt {

struct ExecStats {
  /// Lane-0 colorful count (the full answer of a single-coloring run).
  Count colorful = 0;

  /// Per-lane colorful counts; lanes_used entries are meaningful.
  std::array<Count, kMaxBatchLanes> colorful_lane{};
  int lanes_used = 1;

  double wall_seconds = 0.0;

  /// Most entries held at once by one block's solve: a leaf table, or a
  /// cycle block's live walk tables plus its sink.
  std::size_t peak_table_entries = 0;

  // Filled when a LoadModel was attached.
  double sim_time = 0.0;
  std::uint64_t total_ops = 0;
  std::uint64_t max_rank_ops = 0;
  double avg_rank_ops = 0.0;
  std::uint64_t total_comm = 0;

  /// Lane-layout telemetry aggregated over every table the path
  /// primitives read and every table the pool stores: observed lane
  /// density, how many rows were packed, and the count widths they need
  /// (surfaced into BENCH_batch.json).
  LaneTelemetry lanes;

  /// Per-stage wall breakdown of the run (accumulate / seal / merge;
  /// transport stays zero in shared-memory runs). Stage totals may sum
  /// below wall_seconds — planning glue and root totals are untimed.
  StageWall stage;

  /// Accumulation telemetry: one phase per path primitive, and the rows
  /// and bytes it fed to its bucket sorts.
  AccumTelemetry accum;

  /// Fault-tolerance scoreboard (injected faults, retries, replays,
  /// checkpoint cost). All-zero for shared-memory runs, which have no
  /// transport to fail; present so ExecStats and DistStats expose one
  /// shape to estimator-level aggregation.
  FaultStats faults;
};

/// Count the colorful matches of the plan's query under every lane of
/// cx.chi. The lanes run one after another, each as a single-coloring
/// run charged to cx.load; the stats are the lanes' sums (peaks: their
/// maxima).
/// Throws BudgetExceeded when a table outgrows the configured budget.
ExecStats run_plan(const ExecContext& cx, const DecompTree& tree);

}  // namespace ccbt
