#pragma once
// Virtual-rank BSP load model — the substitution for the paper's MPI runs.
//
// The paper measures "load" as the number of projection function
// operations executed per rank (Fig 11) and reports strong/weak scaling of
// wall time on Blue Gene/Q (Figs 12-13). We reproduce the phenomenology:
// every join primitive charges its operations to the rank owning the
// vertex it executes on (entry (u,v,α) is owned by owner(v), Section 7)
// and each primitive is one bulk-synchronous phase. The simulated time of
// a run is the sum over phases of the slowest rank's work:
//
//   sim_time = Σ_phase max_r ( ops_r + comm_cost * recv_r )
//
// Improvement factors, speedups and normalized loads — the quantities in
// every figure — are ratios of these unitless totals.
//
// Charging is thread-affine: add_ops/add_comm write to the calling
// OpenMP thread's private charge buffer, so the engine's parallel join
// loops can account load without serializing. end_phase() — always called
// from serial code between primitives — reduces the buffers into the
// per-rank phase totals. Charges are additive and the reduction is
// order-independent, so a threaded simulated run produces bit-identical
// totals to a serial one.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ccbt/graph/partition.hpp"

namespace ccbt {

class LoadModel {
 public:
  explicit LoadModel(std::uint32_t ranks, double comm_cost = 2.0);

  std::uint32_t num_ranks() const {
    return static_cast<std::uint32_t>(total_ops_.size());
  }

  /// Charge `n` projection operations to `rank` (thread-safe).
  void add_ops(std::uint32_t rank, std::uint64_t n);

  /// Model `n` entries sent from -> to; off-rank traffic charges the
  /// receiver (thread-safe).
  void add_comm(std::uint32_t from, std::uint32_t to, std::uint64_t n);

  /// Model `n` entries that another rank sent to `to` (add_comm once the
  /// sender is known to be off-rank; thread-safe).
  void add_received(std::uint32_t to, std::uint64_t n);

  /// Close the current bulk-synchronous phase and charge its makespan.
  /// Must be called outside parallel regions.
  void end_phase();

  /// Charge the last closed phase `times` more times, as if it had run
  /// again: the same per-rank ops, comm and makespan. The walk schedule
  /// (cycle_solver.hpp) charges a table it shares this way.
  void repeat_last_phase(std::uint64_t times);

  /// Unitless simulated makespan across all closed phases.
  double sim_time() const { return sim_time_; }

  /// Per-rank totals over the whole run (Fig 11's load metrics). Totals
  /// reflect closed phases only.
  std::uint64_t total_ops() const;
  std::uint64_t max_rank_ops() const;
  double avg_rank_ops() const;
  std::uint64_t total_comm() const { return total_comm_; }

  const std::vector<std::uint64_t>& rank_ops() const { return total_ops_; }

  /// Charges made while one phase is open that belong to the phase after
  /// it, summed per rank: the fused extend-and-merge primitive makes its
  /// merge charges while the extend's rows stream. apply() hands them to
  /// the model once the open phase has closed.
  struct Held {
    std::vector<std::uint64_t> ops;   // per rank
    std::vector<std::uint64_t> recv;  // off-rank entries received, per rank

    explicit Held(std::uint32_t ranks = 0) : ops(ranks, 0), recv(ranks, 0) {}

    void add_ops(std::uint32_t rank, std::uint64_t n) { ops[rank] += n; }
    void add_comm(std::uint32_t from, std::uint32_t to, std::uint64_t n) {
      if (from != to) recv[to] += n;
    }
    void add(const Held& o);
    void apply(LoadModel& model) const;
  };

 private:
  /// One OpenMP thread's uncommitted charges for the open phase. The
  /// counters are relaxed atomics: in the expected configuration each
  /// buffer has exactly one writer, but if a caller enlarges the OpenMP
  /// team after construction, the surplus threads fold onto existing
  /// buffers and the charges stay correct (additive, order-free) instead
  /// of racing.
  struct alignas(64) ThreadCharges {
    std::unique_ptr<std::atomic<std::uint64_t>[]> ops;   // per rank
    std::unique_ptr<std::atomic<std::uint64_t>[]> recv;  // per rank
    std::atomic<std::uint64_t> comm{0};  // off-rank entry count
  };

  ThreadCharges& mine();

  double comm_cost_ = 2.0;
  double sim_time_ = 0.0;
  std::uint64_t total_comm_ = 0;
  std::vector<ThreadCharges> bufs_;   // one per OpenMP thread
  std::vector<std::uint64_t> total_ops_;
  std::vector<std::uint64_t> last_ops_;  // per rank, of the last phase
  std::uint64_t last_comm_ = 0;
  double last_makespan_ = 0.0;
};

}  // namespace ccbt
