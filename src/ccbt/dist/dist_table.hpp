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
// account for it. A path shard is born sorted kByV1 on its rank; every
// other shard is a summed FlatRows sink, adopted sealed kByV0
// (ProjTable::from_sink), so nothing re-sorts a shard.

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

  /// Add the rows the last exchange delivered to each rank to that rank's
  /// sink, emptying the inbox, and sum every sink
  /// (FlatRows::sum_duplicates). Throws BudgetExceeded when the summed
  /// rows of all sinks together exceed `budget`.
  static void sum_inboxes(VirtualComm& comm, std::vector<FlatRows>& sinks,
                          std::size_t budget) {
    std::size_t total = 0;
    for (std::uint32_t r = 0; r < comm.num_ranks(); ++r) {
      for (const TableEntry& e : comm.inbox(r)) sinks[r].add(e.key, e.cnt);
      comm.clear_inbox(r);
      sinks[r].sum_duplicates();
      total += sinks[r].size();
    }
    if (total > budget) {
      throw BudgetExceeded("projection table exceeded " +
                           std::to_string(budget) + " entries");
    }
  }

  /// One shard per rank from the summed per-rank sinks, homed at
  /// `home_slot`, each sealed kByV0 with its bucket index over the data
  /// graph's `num_vertices` (ProjTable::from_sink).
  static DistTable from_sinks(int arity, int home_slot,
                              std::vector<FlatRows>& sinks,
                              VertexId num_vertices) {
    std::vector<ProjTable> shards;
    shards.reserve(sinks.size());
    for (FlatRows& m : sinks) {
      shards.push_back(
          ProjTable::from_sink(arity, std::move(m), num_vertices));
    }
    return from_shards(arity, home_slot, std::move(shards));
  }

  /// The rows the last exchange delivered, rank r's summed into shard r
  /// (sum_inboxes, then from_sinks) in the key layout of the
  /// `num_vertices`-vertex data graph. Throws BudgetExceeded as
  /// sum_inboxes does.
  static DistTable collect(int arity, int home_slot, VirtualComm& comm,
                           std::size_t budget, VertexId num_vertices) {
    std::vector<FlatRows> sinks(
        comm.num_ranks(), FlatRows(KeyLayout::for_vertices(num_vertices)));
    sum_inboxes(comm, sinks, budget);
    return from_sinks(arity, home_slot, sinks, num_vertices);
  }

  /// A stored table restored from per-rank row sequences (a checkpoint's
  /// decoded shards), one shard per rank, each rebuilt as a summed sink.
  /// The rows were encoded in kByV0 order with unique keys, so the sum
  /// only sorts them and the restored table equals the checkpointed one
  /// bit for bit.
  static DistTable from_shard_rows(
      int arity, int home_slot,
      const std::vector<std::vector<TableEntry>>& rows,
      VertexId num_vertices) {
    std::vector<FlatRows> sinks(
        rows.size(), FlatRows(KeyLayout::for_vertices(num_vertices)));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      sinks[r].reserve(rows[r].size());
      for (const TableEntry& e : rows[r]) sinks[r].append(e.key, e.cnt);
      sinks[r].sum_duplicates();
    }
    return from_sinks(arity, home_slot, sinks, num_vertices);
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

  /// Swap key slots 0 and 1 and re-home (one superstep): every rank sums
  /// the swapped rows it receives into its shard (collect), sealed kByV0 —
  /// the storage convention for child-block tables.
  DistTable transposed(VirtualComm& comm, const BlockPartition& part,
                       std::size_t budget) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      shards_[r].for_each_entry([&](const TableEntry& e) {
        TableEntry t = e;
        std::swap(t.key.v[0], t.key.v[1]);
        comm.send(r, part.owner(t.key.v[home_slot_]), t);
      });
    }
    comm.exchange();
    return collect(arity_, home_slot_, comm, budget, part.num_vertices());
  }

  /// Rank r's view of this born-sorted path table (home slot 1) for a
  /// pull over r's vertices: its own shard's buckets plus the halo
  /// buckets the last exchange delivered to r. Senders drain in rank
  /// order, each its buckets in vertex order, and every bucket arrives
  /// whole and already sorted, so the view is assembled in bucket order
  /// with no sort, sealed kByV1 with a bucket index, its rows packed in
  /// the key layout of the partitioned graph. The view carries no layout
  /// stats: its rows are noted by the shards that own them.
  /// Empties r's inbox. Throws Error when a halo row belongs to r's own
  /// vertices or arrives out of bucket order.
  ProjTable halo_view(std::uint32_t r, VirtualComm& comm,
                      const BlockPartition& part) const {
    const std::vector<TableEntry>& in = comm.inbox(r);
    const ProjTable& own = shards_[r];
    SortedBuckets rows(KeyLayout::for_vertices(part.num_vertices()),
                       own.size() + in.size());
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
  /// so one stands for them all: rank 0's, its own shard and the rows it
  /// received summed into one sink in the key layout of the
  /// `num_vertices`-vertex data graph, sealed kByV0 with its index over
  /// `num_vertices`. Empties every inbox.
  ProjTable allgathered(VirtualComm& comm, VertexId num_vertices) const {
    for (std::uint32_t s = 0; s < num_shards(); ++s) {
      shards_[s].for_each_entry([&](const TableEntry& e) {
        for (std::uint32_t d = 0; d < num_shards(); ++d) {
          if (d != s) comm.send(s, d, e);
        }
      });
    }
    comm.exchange();
    FlatRows sink(KeyLayout::for_vertices(num_vertices));
    sink.reserve(shards_[0].size() + comm.inbox(0).size());
    shards_[0].for_each_entry(
        [&](const TableEntry& e) { sink.append(e.key, e.cnt); });
    for (const TableEntry& e : comm.inbox(0)) sink.append(e.key, e.cnt);
    for (std::uint32_t r = 0; r < num_shards(); ++r) comm.clear_inbox(r);
    sink.sum_duplicates();
    return ProjTable::from_sink(arity_, std::move(sink), num_vertices);
  }

 private:
  int arity_ = 0;
  int home_slot_ = 0;
  std::vector<ProjTable> shards_;
};

}  // namespace ccbt
