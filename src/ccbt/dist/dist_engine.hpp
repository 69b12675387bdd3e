#pragma once
// The virtual-MPI distributed engine (Section 7).
//
// run_plan_distributed executes the same decomposition-tree plan as the
// shared-memory run_plan, but with every projection table physically
// sharded across `ranks` virtual ranks (DistTable). Each rank builds its
// path shards with the shared pull primitives over its own vertices
// (dist/dist_primitives.hpp) and sees other ranks' rows only through
// VirtualComm supersteps. The engine charges the BSP load model exactly
// as the shared engine does — same phases, same per-entry operation
// counts — so a distributed run reproduces the shared run's colorful
// count AND its modeled load (total/max/avg ops, sim_time, modeled comm)
// bit for bit, while additionally reporting what the model cannot see:
// the actual transport volume.
//
// Fault tolerance (ExecOptions::dist): a seeded FaultPlan can drop,
// duplicate, or delay superstep messages, stall ranks, and fail table
// allocations. Recovery is layered — the transport retransmits missing
// messages with backoff (dist/comm.hpp), the engine snapshots sealed
// pool state at checkpoint_interval superstep boundaries and replays
// from the last snapshot when a superstep cannot be recovered
// (dist/checkpoint.hpp), and a run that exhausts both budgets throws a
// typed retryable error the estimator turns into a dropped trial. A
// recovered run's per-lane counts are bit-identical to the fault-free
// run; DistStats::faults reports what the recovery cost.

#include <array>
#include <cstddef>
#include <cstdint>

#include "ccbt/decomp/block.hpp"
#include "ccbt/dist/comm.hpp"
#include "ccbt/dist/dist_table.hpp"
#include "ccbt/engine/exec_context.hpp"
#include "ccbt/graph/coloring.hpp"
#include "ccbt/graph/csr_graph.hpp"

namespace ccbt {

struct DistStats {
  /// Lane-0 colorful count (the full answer of a single-coloring run).
  Count colorful = 0;

  /// Per-lane colorful counts; lanes_used entries are meaningful.
  std::array<Count, kMaxBatchLanes> colorful_lane{};
  int lanes_used = 1;

  double wall_seconds = 0.0;

  /// Most entries held at once by one block's solve, summed over the
  /// ranks: a leaf table, or a cycle block's live walk tables plus its
  /// sinks (see ExecStats::peak_table_entries; the two engines agree).
  std::size_t peak_table_entries = 0;

  // Modeled load — exact parity with the shared engine's ExecStats when
  // run with sim_ranks == ranks.
  double sim_time = 0.0;
  std::uint64_t total_ops = 0;
  std::uint64_t max_rank_ops = 0;
  double avg_rank_ops = 0.0;
  std::uint64_t total_comm = 0;

  // Physical transport accounting (supersteps, entries moved, off-rank
  // volume). The model charges one entry per cross-rank join emission; an
  // extend ships each input bucket once per reading rank instead, and a
  // fused split step ships each rank's summed merge outputs once.
  CommStats transport;

  /// Lane-layout telemetry over the run's tables (see ExecStats::lanes).
  LaneTelemetry lanes;

  /// Per-stage wall breakdown (see ExecStats::stage); here `transport`
  /// covers the virtual-MPI exchanges, the halo views, transposes and
  /// replicas, and the merge-sink and aggregate collects. Path shards are
  /// built by the shared bucket builds and count as `accumulate`; the
  /// fused split steps count as `merge`.
  StageWall stage;

  /// Accumulation telemetry (see ExecStats::accum): one phase per path
  /// table, with the rows its frontier buckets took in and the bytes they
  /// occupied — the same totals the shared engine reports.
  AccumTelemetry accum;

  /// Fault-tolerance scoreboard: faults injected by the configured
  /// FaultPlan, delivery retries and their modeled backoff, checkpoint
  /// snapshots taken and their byte cost, and rollback replays. All-zero
  /// when ExecOptions::dist is default (no injection, no checkpoints).
  FaultStats faults;

  /// Did the run recover from at least one injected fault?
  bool recovered() const {
    return faults.retries > 0 || faults.replays > 0;
  }
};

/// Count the colorful matches of the plan's query under `chi` on a
/// virtual cluster of `ranks` ranks. Throws Error for a rootless tree or
/// zero ranks, BudgetExceeded when a table outgrows the configured
/// budget.
DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const Coloring& chi, std::uint32_t ranks,
                               ExecOptions opts = {});

/// Batched variant: the lanes of `batch` run one after another, each as a
/// single-coloring run, through one transport, load model, fault plan,
/// replay budget and degree order. Lane l of stats.colorful_lane is the
/// count of a single-coloring run under batch.lane(l); the other stats
/// are the lanes' sums (peaks: their maxima), and the load model sees the
/// colorings as consecutive phases.
DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const ColoringBatch& batch,
                               std::uint32_t ranks, ExecOptions opts = {});

}  // namespace ccbt
