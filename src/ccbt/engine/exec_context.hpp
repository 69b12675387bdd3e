#pragma once
// Execution context shared by all engine primitives: the graph, the
// coloring, the degree order, the optional load model and telemetry
// collectors, and the run's options. Table rows have one format, packed
// flat rows (wide where a key does not pack), which no option selects.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "ccbt/engine/load_model.hpp"
#include "ccbt/graph/coloring.hpp"
#include "ccbt/graph/csr_graph.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/graph/partition.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/fault.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

/// Wall-clock breakdown of one plan execution by pipeline stage, so a
/// speedup (or regression) is attributable stage by stage: kernel
/// emission, sink tables' index builds and transposes, merge joins, and —
/// distributed engine only — the transport exchanges.
struct StageWall {
  double accumulate = 0.0;  // join kernels emitting rows
  double seal = 0.0;        // sink table indexes + shared transposes
  double merge = 0.0;       // merge_halves / extend_and_merge sweeps
  double transport = 0.0;   // virtual-MPI encode/exchange/decode

  void add(const StageWall& o) {
    accumulate += o.accumulate;
    seal += o.seal;
    merge += o.merge;
    transport += o.transport;
  }

  double total() const { return accumulate + seal + merge + transport; }
};

/// RAII accumulator for one StageWall slot; tolerates a null slot so the
/// hot paths need no "is timing attached" branches at the call sites.
class ScopedStage {
 public:
  explicit ScopedStage(double* slot) noexcept : slot_(slot) {}
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;
  ~ScopedStage() {
    if (slot_ != nullptr) *slot_ += timer_.seconds();
  }

 private:
  double* slot_;
  Timer timer_;
};

/// Which cycle-solving strategy to run (Section 5).
enum class Algo : std::uint8_t {
  kPS,      // baseline: split at the boundary nodes (Alon et al. DP)
  kPSEven,  // ablation: split evenly at (p, diag(p)), track boundaries
  kDB,      // degree-based: anchor at the highest node, split at diagonal
};

inline const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kPS: return "PS";
    case Algo::kPSEven: return "PS-EVEN";
    case Algo::kDB: return "DB";
  }
  return "?";
}

/// Fault-tolerance knobs for the distributed engine: deterministic fault
/// injection plus the three-layer recovery ladder (superstep retransmit
/// with backoff -> checkpoint replay -> typed retryable error the
/// estimator degrades on).
struct DistOptions {
  /// Deterministic fault schedule; a default spec injects nothing and
  /// keeps the transport on its zero-overhead fault-free path.
  FaultSpec faults;

  /// Extra delivery attempts per superstep before the transport gives up
  /// (CommTimeout / RankFailed).
  std::uint32_t max_retries = 3;

  /// Rollback-to-checkpoint replays per run before a retryable failure
  /// propagates to the caller.
  std::uint32_t max_replays = 2;

  /// Snapshot the sealed-shard state once at least this many transport
  /// supersteps passed since the last snapshot (checked at block
  /// boundaries). 0 disables periodic checkpoints; replay then restarts
  /// from the implicit initial (empty) checkpoint.
  std::uint64_t checkpoint_interval = 0;

  /// Per-superstep exchange-acknowledgment deadline: a stalled rank is
  /// detected after (virtually) waiting this long. Accounted in
  /// FaultStats::deadline_wait_virtual_ms, never slept.
  double deadline_ms = 100.0;

  /// Base of the exponential retry backoff (virtual, jittered).
  double backoff_base_ms = 1.0;
};

struct ExecOptions {
  Algo algo = Algo::kDB;

  /// Virtual MPI ranks for the load model; 0 disables load accounting.
  std::uint32_t sim_ranks = 0;

  /// Abort with BudgetExceeded when any table grows beyond this (the
  /// paper's PS runs hit exactly this wall — blank cells in Fig 10). At
  /// most UINT32_MAX: the engines reject a larger budget at entry. The
  /// budget bounds distinct rows: a sink (merge, aggregate) that passes it
  /// first sums its duplicate keys and throws only if the summed rows
  /// still exceed it. The end buckets a cycle split's fused last extend
  /// (extend_and_merge) streams into its merge are not a table and are
  /// not counted; the cycle sink they feed stays bounded.
  std::size_t max_table_entries = 80'000'000;

  /// Ablation: anchor DB at the id order instead of the degree order
  /// (isolates the value of degree information from symmetry breaking).
  bool order_by_id = false;

  /// Retired row-format settings, fixed on: every sink and every path
  /// table holds packed flat rows while its keys pack
  /// (table/flat_rows.hpp). bench_suite's traced replay still reads both
  /// names; they leave with the replay.
  static constexpr bool compact_accum = true;
  static constexpr bool lane_compress = true;

  /// Fault injection and recovery (distributed engine only; the shared
  /// engine ignores it).
  DistOptions dist;
};

/// Born-sorted tables count bucket rows and CSR offsets in u32: a table
/// budget past UINT32_MAX would let them wrap silently instead of
/// throwing. Every
/// engine entry point rejects such a budget up front with BudgetExceeded.
inline void check_table_budget(const ExecOptions& opts, const char* who) {
  if (opts.max_table_entries > std::numeric_limits<std::uint32_t>::max()) {
    throw BudgetExceeded(std::string(who) + ": max_table_entries " +
                         std::to_string(opts.max_table_entries) +
                         " exceeds the u32 table offset limit");
  }
}

struct ExecContext {
  const CsrGraph& g;
  ColoringBatch chi;  // the primitives count under lane 0's coloring
  const DegreeOrder& order;
  BlockPartition part;       // ownership map for the load model
  LoadModel* load = nullptr;  // optional
  ExecOptions opts;

  /// Optional collector of the tables' layout observations (occupancy,
  /// packed rows and the count widths they need); the engines attach one
  /// and surface it through ExecStats / DistStats.
  LaneTelemetry* lane_telemetry = nullptr;

  /// Optional per-stage wall-clock collector (accumulate / seal / merge /
  /// transport); the engines attach one and surface it through
  /// ExecStats::stage / DistStats::stage.
  StageWall* stage = nullptr;

  /// Optional collector of accumulation telemetry (phases, rows and
  /// bytes emitted); every row-producing primitive adds its phase and the
  /// engines surface it through ExecStats::accum / DistStats::accum.
  AccumTelemetry* accum = nullptr;

  double* stage_slot(double StageWall::* member) const {
    return stage == nullptr ? nullptr : &(stage->*member);
  }

  std::uint32_t owner(VertexId v) const { return part.owner(v); }

  /// The packed key layout of the data graph, which every sink and bucket
  /// build packs its rows in.
  KeyLayout key_layout() const {
    return KeyLayout::for_vertices(g.num_vertices());
  }

  void note_lanes(const LaneLayoutInfo& info) const {
    if (lane_telemetry != nullptr) lane_telemetry->note(info);
  }

  void charge(VertexId at, std::uint64_t ops) const {
    if (load != nullptr) load->add_ops(part.owner(at), ops);
  }
  void send(VertexId from, VertexId to, std::uint64_t n) const {
    if (load != nullptr) {
      load->add_comm(part.owner(from), part.owner(to), n);
    }
  }
  void end_phase() const {
    if (load != nullptr) load->end_phase();
  }
};

}  // namespace ccbt
