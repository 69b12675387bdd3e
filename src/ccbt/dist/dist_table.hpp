#pragma once
// DistTable: a projection table physically sharded across virtual ranks.
//
// Section 7: every entry (u, v, α) is owned by the rank owning the vertex
// in its *home slot* (slot 1 = the frontier while a path table is being
// extended; slot 0 once a block table is stored for child lookups). A
// DistTable is the union of per-rank ProjTable shards; a table is "well
// placed" when every entry sits on the owner of its home-slot vertex.
//
// Every movement between ranks — a transposition, the halo buckets an
// extend reads (halo_view), the replica of a unary table (allgathered) —
// happens through VirtualComm supersteps, so the transport statistics
// account for it.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/comm.hpp"
#include "ccbt/graph/partition.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

class DistTable {
 public:
  DistTable() = default;

  /// Drain every rank's inbox (as delivered by the last exchange) into
  /// its shard, accumulating duplicate keys, and seal each shard in
  /// `order` (`domain` enables the shards' O(1) bucket index). Throws
  /// BudgetExceeded when the total entry count exceeds `budget`. The
  /// inbox rows are adopted flat; duplicates merge at the shard's first
  /// sorting seal.
  static DistTable collect(int arity, int home_slot, VirtualComm& comm,
                           SortOrder order, std::size_t budget,
                           VertexId domain = 0) {
    DistTable t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.resize(comm.num_ranks());
    std::size_t total = 0;
    for (std::uint32_t r = 0; r < comm.num_ranks(); ++r) {
      ProjTable shard = ProjTable::from_flat(arity, comm.take_inbox(r));
      total += shard.size();
      if (total > budget) {
        throw BudgetExceeded("distributed table exceeded " +
                             std::to_string(budget) + " entries");
      }
      shard.seal(order, domain);
      t.shards_[r] = std::move(shard);
    }
    return t;
  }

  /// Materialize from per-rank row sequences (checkpoint restore), one
  /// shard per rank, sealed in `order`. Rows decoded from a checkpoint
  /// arrive in sealed order with unique keys, so re-sealing (a
  /// deterministic sort) reproduces the checkpointed table bit for bit.
  static DistTable from_shard_rows(int arity, int home_slot,
                                   std::vector<std::vector<TableEntry>> rows,
                                   SortOrder order, VertexId domain) {
    DistTable t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      ProjTable shard = ProjTable::from_flat(arity, std::move(rows[r]));
      shard.seal(order, domain);
      t.shards_[r] = std::move(shard);
    }
    return t;
  }

  /// Adopt one shard per rank (each built in place on its rank).
  static DistTable from_shards(int arity, int home_slot,
                               std::vector<ProjTable> shards) {
    DistTable t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_ = std::move(shards);
    return t;
  }

  int arity() const { return arity_; }
  int home_slot() const { return home_slot_; }

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Total entries across all shards.
  std::size_t size() const {
    std::size_t sum = 0;
    for (const auto& s : shards_) sum += s.size();
    return sum;
  }

  /// Total count across all shards.
  Count total() const {
    Count sum = 0;
    for (const auto& s : shards_) sum += s.total();
    return sum;
  }

  const ProjTable& shard(std::uint32_t rank) const { return shards_[rank]; }
  ProjTable& shard(std::uint32_t rank) { return shards_[rank]; }

  /// Per-shard totals (allreduce input).
  std::vector<Count> shard_totals() const {
    std::vector<Count> parts(shards_.size());
    for (std::size_t r = 0; r < shards_.size(); ++r) {
      parts[r] = shards_[r].total();
    }
    return parts;
  }

  /// Every entry lives on the owner of its home-slot vertex.
  bool well_placed(const BlockPartition& part) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      bool ok = true;
      shards_[r].for_each_entry([&](const TableEntry& e) {
        ok = ok && part.owner(e.key.v[home_slot_]) == r;
      });
      if (!ok) return false;
    }
    return true;
  }

  /// Flatten into one shared-memory table, accumulating duplicate keys.
  ProjTable gather() const {
    AccumMap map(size());
    for (const auto& s : shards_) {
      s.for_each_entry([&](const TableEntry& e) { map.add(e.key, e.cnt); });
    }
    return ProjTable::from_map(arity_, std::move(map));
  }

  /// Swap key slots 0 and 1 and re-home (one superstep); shards sealed
  /// kByV0 — the storage convention for child-block tables.
  DistTable transposed(VirtualComm& comm, const BlockPartition& part,
                       std::size_t budget, VertexId domain = 0) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      shards_[r].for_each_entry([&](const TableEntry& e) {
        TableEntry t = e;
        std::swap(t.key.v[0], t.key.v[1]);
        comm.send(r, part.owner(t.key.v[home_slot_]), t);
      });
    }
    comm.exchange();
    return collect(arity_, home_slot_, comm, SortOrder::kByV0, budget,
                   domain);
  }

  /// Rank r's view of this born-sorted path table (home slot 1) for a
  /// pull over r's vertices: its own shard's buckets plus the halo
  /// buckets the last exchange delivered to r. Senders drain in rank
  /// order, each its buckets in vertex order, and every bucket arrives
  /// whole and already sorted, so the view is assembled in bucket order
  /// with no sort, sealed kByV1 with a bucket index; `wide` keeps the rows
  /// dense. The view carries no layout stats: its rows are noted by the
  /// shards that own them. Empties r's inbox. Throws Error when a halo row
  /// belongs to r's own vertices or arrives out of bucket order.
  ProjTable halo_view(std::uint32_t r, VirtualComm& comm,
                      const BlockPartition& part, bool wide) const {
    const std::vector<TableEntry>& in = comm.inbox(r);
    const ProjTable& own = shards_[r];
    SortedBuckets rows(wide, own.size() + in.size());
    VertexId last = 0;
    for (const TableEntry& e : in) {
      const VertexId v = e.key.v[1];
      if ((v >= part.begin(r) && v < part.end(r)) || v < last) {
        throw Error("halo_view: row of bucket " + std::to_string(v) +
                    " out of place on rank " + std::to_string(r));
      }
      last = v;
    }
    std::size_t i = 0;
    for (; i < in.size() && in[i].key.v[1] < part.begin(r); ++i) {
      rows.append_sorted(in[i].key, in[i].cnt);
    }
    own.for_each_entry(
        [&](const TableEntry& e) { rows.append_sorted(e.key, e.cnt); });
    for (; i < in.size(); ++i) rows.append_sorted(in[i].key, in[i].cnt);
    comm.clear_inbox(r);
    return ProjTable::from_buckets(arity_, std::move(rows));
  }

  /// Every rank's copy of the whole table after one allgather superstep:
  /// each shard goes to every other rank. All copies hold the same rows,
  /// so one stands for them all: rank 0's, sealed kByV0 (`domain`
  /// enables its bucket index). Empties every inbox.
  ProjTable allgathered(VirtualComm& comm, VertexId domain) const {
    for (std::uint32_t s = 0; s < num_shards(); ++s) {
      shards_[s].for_each_entry([&](const TableEntry& e) {
        for (std::uint32_t d = 0; d < num_shards(); ++d) {
          if (d != s) comm.send(s, d, e);
        }
      });
    }
    comm.exchange();
    std::vector<TableEntry> rows;
    rows.reserve(shards_[0].size() + comm.inbox(0).size());
    shards_[0].for_each_entry([&](const TableEntry& e) { rows.push_back(e); });
    rows.insert(rows.end(), comm.inbox(0).begin(), comm.inbox(0).end());
    for (std::uint32_t r = 0; r < num_shards(); ++r) comm.clear_inbox(r);
    ProjTable copy = ProjTable::from_flat(arity_, std::move(rows));
    copy.seal(SortOrder::kByV0, domain);
    return copy;
  }

  /// Seal every shard (used when a table is stored).
  void seal_shards(SortOrder order, VertexId domain = 0) {
    for (auto& s : shards_) s.seal(order, domain);
  }

 private:
  int arity_ = 0;
  int home_slot_ = 0;
  std::vector<ProjTable> shards_;
};

}  // namespace ccbt
