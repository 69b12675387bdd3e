#pragma once
// VirtualComm: a single-process stand-in for the paper's MPI transport
// (Section 7). Ranks exchange projection-table entries in bulk-synchronous
// supersteps: send() queues an entry in the sender's outbox, exchange()
// delivers every queued entry to its destination inbox and closes the
// superstep. Delivery is deterministic — inboxes concatenate senders in
// rank order, preserving each sender's send order — so a virtual run is
// exactly reproducible.
//
// Buffer lifetime: outboxes and inboxes live as long as the transport (one
// run_plan_distributed call). exchange() empties each inbox without
// freeing it and reserves it to the exact row count send() tallied for
// that rank, so a delivery never regrows a buffer and later supersteps
// reuse the pages earlier ones faulted in.
//
// The transport keeps its own traffic accounting (CommStats), independent
// of the engine's modeled LoadModel communication: the model charges one
// entry per join emission that crosses ranks (Section 7), while the
// transport counts what the engine actually moves — each input bucket an
// extend reads, shipped once per reading rank, plus the transposes,
// replicas and routed merge and aggregate outputs.
//
// Fault tolerance: with a FaultPlan installed (set_fault_plan), each
// off-rank message's delivery attempt can deterministically drop,
// duplicate, or delay it, and whole ranks can stall past the ack
// deadline. exchange() then runs a selective-retransmit protocol:
// per-superstep acknowledgments identify the messages still missing
// (sequence numbers, as a real transport would), and only those are
// re-attempted, up to max_retries extra attempts with exponential
// backoff + jitter (accounted virtually, never slept). The receiver
// reassembles its inbox in canonical (sender rank, send order) sequence
// no matter which attempt delivered each message, so a recovered
// superstep is bit-identical to a fault-free one. Exhausting the retry
// budget throws CommTimeout (or RankFailed when a stalled rank holds the
// missing traffic) — both retryable, so the engine can replay from its
// last checkpoint.
//
// Wire format: fixed 28-byte rows (kWireRowBytes), one count per row. A
// coloring batch runs its lanes one after another, so the transport never
// carries more than one count per row. Checkpoint shard images store the
// same row (dist/checkpoint.hpp).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ccbt/table/table_key.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/fault.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {

/// Bytes of one row on the wire and in a checkpoint record: the key's
/// five u32 words (v0 v1 v2 v3 sig) and the u64 count, unpadded.
inline constexpr std::uint64_t kWireRowBytes =
    5 * sizeof(std::uint32_t) + sizeof(Count);
static_assert(sizeof(TableKey) + sizeof(Count) == kWireRowBytes);

struct CommStats {
  std::uint64_t supersteps = 0;
  std::uint64_t entries_sent = 0;      // all sends, local included
  std::uint64_t off_rank_entries = 0;  // sends with from != to
  std::uint64_t max_step_recv = 0;     // max entries one rank received
                                       // in one superstep

  /// Wire volume of the off-rank traffic.
  std::uint64_t off_rank_bytes() const {
    return off_rank_entries * kWireRowBytes;
  }

  /// Occupied share of the count lanes sent. Rows carry a single count,
  /// so there is no lane occupancy to report: always 0.
  double wire_lane_density() const { return 0.0; }
};

class VirtualComm {
 public:
  /// Throws Error when ranks == 0.
  explicit VirtualComm(std::uint32_t ranks) {
    if (ranks == 0) throw Error("VirtualComm: need at least one rank");
    queued_to_.resize(ranks, 0);
    outbox_.resize(ranks);
    inbox_.resize(ranks);
  }

  std::uint32_t num_ranks() const {
    return static_cast<std::uint32_t>(inbox_.size());
  }

  /// Queue `e` from rank `from` to rank `to`; visible after exchange().
  void send(std::uint32_t from, std::uint32_t to, const TableEntry& e) {
    ++stats_.entries_sent;
    ++queued_to_[to];
    outbox_[from].push_back({to, e});
    if (from != to) ++stats_.off_rank_entries;
  }

  /// Install (or clear, with nullptr) a deterministic fault plan plus the
  /// recovery knobs the faulty exchange protocol uses. The plan outlives
  /// the transport's use of it; callers keep ownership.
  void set_fault_plan(FaultPlan* plan, std::uint32_t max_retries = 3,
                      double backoff_base_ms = 1.0,
                      double deadline_ms = 0.0) {
    faults_ = plan;
    max_retries_ = max_retries;
    backoff_base_ms_ = backoff_base_ms;
    deadline_ms_ = deadline_ms;
    if (plan != nullptr) jitter_ = Rng(plan->spec().seed ^ 0xBAC0FFULL);
  }

  /// Discard all in-flight state (queued sends and delivered inboxes),
  /// keeping the traffic statistics. The engine calls this before
  /// replaying from a checkpoint, since an aborted superstep leaves
  /// half-queued outboxes behind.
  void reset_in_flight() {
    for (auto& out : outbox_) out.clear();
    for (auto& in : inbox_) in.clear();
    std::fill(queued_to_.begin(), queued_to_.end(), 0);
  }

  /// Deliver all queued entries (replacing previous inboxes) and close
  /// the superstep. With a fault plan installed, runs the
  /// selective-retransmit protocol described in the file comment; throws
  /// CommTimeout / RankFailed when the retry budget cannot complete the
  /// delivery (the inboxes are left empty).
  void exchange() {
    // Empty each inbox, keeping its memory, and reserve it to the rows
    // queued for it: capacity only grows, so later supersteps reuse it.
    for (std::uint32_t r = 0; r < num_ranks(); ++r) {
      inbox_[r].clear();
      inbox_[r].reserve(queued_to_[r]);
      queued_to_[r] = 0;
    }
    if (faults_ != nullptr && faults_->spec().transport_faults()) {
      exchange_faulty();
      return;
    }
    // Senders drain in rank order, each in send order: deterministic
    // delivery independent of any real interleaving.
    for (auto& out : outbox_) {
      for (const Queued& q : out) inbox_[q.to].push_back(q.entry);
      out.clear();
    }
    finish_superstep();
  }

  /// Entries delivered to `rank` by the last exchange.
  const std::vector<TableEntry>& inbox(std::uint32_t rank) const {
    return inbox_[rank];
  }

  /// Empty `rank`'s inbox once its rows are consumed, keeping the buffer
  /// for the next exchange().
  void clear_inbox(std::uint32_t rank) { inbox_[rank].clear(); }

  /// Sum one per-rank contribution vector (MPI_Allreduce stand-in).
  Count allreduce_sum(const std::vector<Count>& parts) const {
    Count sum = 0;
    for (Count c : parts) sum += c;
    return sum;
  }

  const CommStats& stats() const { return stats_; }

 private:
  struct Queued {
    std::uint32_t to;
    TableEntry entry;
  };

  /// One queued message in canonical (sender rank, send order) sequence —
  /// the superstep's retransmit buffer under fault injection.
  struct Pending {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    TableEntry entry;
    bool off_rank = false;
    bool delivered = false;
    bool tried = false;  // an attempt already paid its wire cost once
  };

  void finish_superstep() {
    for (const auto& in : inbox_) {
      stats_.max_step_recv = std::max(
          stats_.max_step_recv, static_cast<std::uint64_t>(in.size()));
    }
    ++stats_.supersteps;
  }

  /// Drain the outboxes into the canonical pending list.
  std::vector<Pending> drain_pending() {
    std::vector<Pending> pending;
    std::size_t total = 0;
    for (const auto& out : outbox_) total += out.size();
    pending.reserve(total);
    for (std::uint32_t r = 0; r < num_ranks(); ++r) {
      for (const Queued& q : outbox_[r]) {
        Pending m;
        m.from = r;
        m.to = q.to;
        m.entry = q.entry;
        m.off_rank = (q.to != r);
        pending.push_back(m);
      }
      outbox_[r].clear();
    }
    return pending;
  }

  /// Selective-retransmit delivery: attempts repeat until every message
  /// arrived once, re-sending only what the per-superstep acks flagged as
  /// missing; the successful outcome reassembles canonical order exactly.
  void exchange_faulty() {
    std::vector<Pending> pending = drain_pending();
    FaultStats& fs = faults_->stats();
    std::size_t undelivered = pending.size();
    std::vector<std::uint8_t> stalled(num_ranks(), 0);
    bool stall_blocked = false;

    const std::uint32_t attempts = max_retries_ + 1;
    for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
      // Per-attempt stall rolls, for senders that still owe traffic.
      std::vector<std::uint8_t> owes(num_ranks(), 0);
      for (const Pending& m : pending) {
        if (!m.delivered) owes[m.from] = 1;
      }
      stall_blocked = false;
      for (std::uint32_t r = 0; r < num_ranks(); ++r) {
        stalled[r] = owes[r] != 0 && faults_->rank_stalls() ? 1 : 0;
        if (stalled[r] != 0) {
          stall_blocked = true;
          fs.deadline_wait_virtual_ms += deadline_ms_;
        }
      }
      for (Pending& m : pending) {
        if (m.delivered) continue;
        if (!m.off_rank) {
          // Loopback never crosses the network: always arrives.
          m.delivered = true;
          --undelivered;
          continue;
        }
        if (stalled[m.from] != 0) continue;
        if (m.tried) fs.retransmit_bytes += kWireRowBytes;
        m.tried = true;
        switch (faults_->message_fate()) {
          case FaultPlan::Fate::kDrop:
          case FaultPlan::Fate::kDelay:
            // Missing from this superstep's acks; re-sent next attempt
            // (a delayed copy arriving later is deduped by sequence
            // number, indistinguishable from the retransmission).
            break;
          case FaultPlan::Fate::kDuplicate:
            fs.retransmit_bytes += kWireRowBytes;
            [[fallthrough]];
          case FaultPlan::Fate::kDeliver:
            m.delivered = true;
            --undelivered;
            break;
        }
      }
      if (undelivered == 0) break;
      if (attempt + 1 < attempts) {
        ++fs.retries;
        fs.backoff_virtual_ms +=
            fault_backoff_ms(backoff_base_ms_, attempt, jitter_);
      }
    }
    if (undelivered > 0) {
      const std::string what =
          "superstep " + std::to_string(stats_.supersteps) + ": " +
          std::to_string(undelivered) + " message(s) undelivered after " +
          std::to_string(attempts) + " attempt(s)";
      if (stall_blocked) throw RankFailed(what + " (rank stalled)");
      throw CommTimeout(what);
    }

    // Reassemble in canonical order — bit-identical to a fault-free
    // exchange regardless of which attempt delivered each message.
    for (const Pending& m : pending) inbox_[m.to].push_back(m.entry);
    finish_superstep();
  }

  std::vector<std::vector<Queued>> outbox_;  // per sender, in send order
  std::vector<std::vector<TableEntry>> inbox_;
  std::vector<std::size_t> queued_to_;  // rows queued per destination
  CommStats stats_;

  // Fault-injection hooks (null / inert by default: the fault-free path
  // does not pay for them).
  FaultPlan* faults_ = nullptr;
  std::uint32_t max_retries_ = 3;
  double backoff_base_ms_ = 1.0;
  double deadline_ms_ = 0.0;
  Rng jitter_;
};

}  // namespace ccbt
