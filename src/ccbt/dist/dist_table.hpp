#pragma once
// DistTable: a projection table physically sharded across virtual ranks.
//
// Section 7: every entry (u, v, α) is owned by the rank owning the vertex
// in its *home slot* (slot 1 = the frontier while a path table is being
// extended; slot 0 once a block table is stored for child lookups). A
// DistTable is the union of per-rank ProjTable shards; a table is "well
// placed" when every entry sits on the owner of its home-slot vertex.
//
// Movement between placements (resharding, transposition) happens through
// VirtualComm supersteps, so the transport statistics account for it.
//
// Parameterized on the batch width B: shards hold lane-indexed entries
// and every superstep serializes whole lane-count vectors, so a batched
// distributed run moves one message per signature-blocked row.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/comm.hpp"
#include "ccbt/graph/partition.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

template <int B>
class DistTableT {
 public:
  using Entry = TableEntryT<B>;
  using Vec = typename LaneOps<B>::Vec;

  DistTableT() = default;

  /// collect_by_frontier's working buffers: the counting partition of one
  /// inbox by frontier and the gather of one bucket. The caller keeps one
  /// for a whole run, so every phase reuses their memory.
  struct FrontierScratch {
    std::vector<std::uint32_t> off;     // bucket offsets of one rank
    std::vector<std::uint32_t> cursor;  // fill position per bucket
    std::vector<std::uint32_t> order;   // inbox indices, bucket by bucket
    FlatRowsT<B> bucket;
  };

  /// Build every rank's born-sorted path shard from its inbox (as
  /// delivered by the last exchange), like the shared engine's path
  /// tables: rows are homed at their frontier (slot 1), so one counting
  /// partition by v1 splits rank r's rows into the buckets of its
  /// vertices, and each bucket is closed through SortedBucketsT (`wide`
  /// keeps rows dense, for lane compression off). Shard r arrives sealed
  /// kByV1 with exactly the shared table's rows of those buckets, the
  /// invariant behind the engines' load-model parity. Each inbox is read
  /// in place and then emptied but not freed: the transport reuses it for
  /// the next superstep, as the partition reuses `scratch`. `accum` gains
  /// one phase. Throws BudgetExceeded when the deduplicated rows exceed
  /// `budget`.
  static DistTableT collect_by_frontier(int arity, VirtualCommT<B>& comm,
                                        const BlockPartition& part,
                                        std::size_t budget, bool wide,
                                        FrontierScratch& scratch,
                                        AccumTelemetry* accum = nullptr) {
    using Mode = typename FlatRowsT<B>::Mode;
    DistTableT t;
    t.arity_ = arity;
    t.home_slot_ = 1;
    t.shards_.resize(comm.num_ranks());
    std::vector<std::uint32_t>& off = scratch.off;
    std::vector<std::uint32_t>& cursor = scratch.cursor;
    std::vector<std::uint32_t>& order = scratch.order;
    std::size_t total = 0;
    for (std::uint32_t r = 0; r < comm.num_ranks(); ++r) {
      const std::vector<Entry>& in = comm.inbox(r);
      const VertexId lo = part.begin(r);
      const VertexId hi = part.end(r);
      off.assign(hi - lo + 1, 0);
      bool packs = true;
      for (const Entry& e : in) {
        packs = packs && packable_key(e.key);
        const VertexId v = e.key.v[1];
        if (v < lo || v >= hi) {
          throw Error("collect_by_frontier: row not homed on rank " +
                      std::to_string(r));
        }
        ++off[v - lo + 1];
      }
      for (std::size_t v = 1; v < off.size(); ++v) off[v] += off[v - 1];
      order.resize(in.size());
      cursor.assign(off.begin(), off.end() - 1);
      for (std::uint32_t i = 0; i < in.size(); ++i) {
        order[cursor[in[i].key.v[1] - lo]++] = i;
      }
      // A shard with an unpackable key ends dense anyway: start it dense,
      // sized to the inbox, instead of growing dense rows by doubling.
      SortedBucketsT<B> built(wide || !packs, in.size());
      built.skip(lo);
      for (VertexId v = 0; v < hi - lo; ++v) {
        scratch.bucket.reset(wide ? Mode::kWide : Mode::kU16);
        for (std::uint32_t i = off[v]; i < off[v + 1]; ++i) {
          if (i + 8 < in.size()) {  // read out of arrival order
            const char* ahead =
                reinterpret_cast<const char*>(&in[order[i + 8]]);
            __builtin_prefetch(ahead);
            __builtin_prefetch(ahead + sizeof(Entry) - 1);
          }
          scratch.bucket.append(in[order[i]].key, in[order[i]].cnt);
        }
        built.close(scratch.bucket);
        if (total + built.size() > budget) {
          throw BudgetExceeded("distributed table exceeded " +
                               std::to_string(budget) + " entries");
        }
      }
      total += built.size();
      if (accum != nullptr) {
        accum->rows += built.emitted_rows();
        accum->emit_bytes += built.emitted_bytes();
      }
      t.shards_[r] = ProjTableT<B>::from_buckets(arity, std::move(built));
      comm.clear_inbox(r);
    }
    if (accum != nullptr) ++accum->phases;
    return t;
  }

  /// Drain every rank's inbox (as delivered by the last exchange) into
  /// its shard, accumulating duplicate keys, and seal each shard in
  /// `order` (`domain` enables the shards' O(1) bucket index). Throws
  /// BudgetExceeded when the total entry count exceeds `budget`. The
  /// inbox rows are adopted flat; duplicates merge at the shard's first
  /// sorting seal.
  static DistTableT collect(int arity, int home_slot, VirtualCommT<B>& comm,
                            SortOrder order, std::size_t budget,
                            VertexId domain = 0) {
    DistTableT t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.resize(comm.num_ranks());
    std::size_t total = 0;
    for (std::uint32_t r = 0; r < comm.num_ranks(); ++r) {
      ProjTableT<B> shard =
          ProjTableT<B>::from_flat(arity, comm.take_inbox(r));
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
  static DistTableT from_shard_rows(int arity, int home_slot,
                                    std::vector<std::vector<Entry>> rows,
                                    SortOrder order, VertexId domain) {
    DistTableT t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      ProjTableT<B> shard =
          ProjTableT<B>::from_flat(arity, std::move(rows[r]));
      shard.seal(order, domain);
      t.shards_[r] = std::move(shard);
    }
    return t;
  }

  /// Materialize from per-rank accumulation maps (the cycle solver's
  /// merge sinks), one shard per map; shards stay unsealed.
  static DistTableT from_maps(int arity, int home_slot,
                              std::vector<AccumMapT<B>> maps) {
    DistTableT t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.reserve(maps.size());
    for (AccumMapT<B>& m : maps) {
      t.shards_.push_back(ProjTableT<B>::from_map(arity, std::move(m)));
    }
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

  /// Total lane-0 count across all shards.
  Count total() const {
    Count sum = 0;
    for (const auto& s : shards_) sum += s.total();
    return sum;
  }

  const ProjTableT<B>& shard(std::uint32_t rank) const {
    return shards_[rank];
  }

  /// Per-shard lane-0 totals, one slot per rank (allreduce input).
  std::vector<Count> shard_totals() const {
    std::vector<Count> parts(shards_.size(), 0);
    for (std::size_t r = 0; r < shards_.size(); ++r) {
      parts[r] = shards_[r].total();
    }
    return parts;
  }

  /// Per-shard per-lane totals (lane-wise allreduce input).
  std::vector<Vec> shard_lane_totals() const {
    std::vector<Vec> parts(shards_.size());
    for (std::size_t r = 0; r < shards_.size(); ++r) {
      parts[r] = shards_[r].lane_totals();
    }
    return parts;
  }

  /// Every entry lives on the owner of its home-slot vertex.
  bool well_placed(const BlockPartition& part) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      bool ok = true;
      shards_[r].for_each_entry([&](const Entry& e) {
        ok = ok && part.owner(e.key.v[home_slot_]) == r;
      });
      if (!ok) return false;
    }
    return true;
  }

  /// Flatten into one shared-memory table, accumulating duplicate keys.
  ProjTableT<B> gather() const {
    AccumMapT<B> map(size());
    for (const auto& s : shards_) {
      s.for_each_entry([&](const Entry& e) { map.add(e.key, e.cnt); });
    }
    return ProjTableT<B>::from_map(arity_, std::move(map));
  }

  /// Move every entry to the owner of its `new_home` slot vertex (one
  /// superstep), sealing shards in `order`.
  DistTableT resharded(int new_home, VirtualCommT<B>& comm,
                       const BlockPartition& part, SortOrder order,
                       std::size_t budget, VertexId domain = 0) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      shards_[r].for_each_entry([&](const Entry& e) {
        comm.send(r, part.owner(e.key.v[new_home]), e);
      });
    }
    comm.exchange();
    return collect(arity_, new_home, comm, order, budget, domain);
  }

  /// Swap key slots 0 and 1 and re-home (one superstep); shards sealed
  /// kByV0 — the storage convention for child-block tables.
  DistTableT transposed(VirtualCommT<B>& comm, const BlockPartition& part,
                        std::size_t budget, VertexId domain = 0) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      shards_[r].for_each_entry([&](const Entry& e) {
        Entry t = e;
        std::swap(t.key.v[0], t.key.v[1]);
        comm.send(r, part.owner(t.key.v[home_slot_]), t);
      });
    }
    comm.exchange();
    return collect(arity_, home_slot_, comm, SortOrder::kByV0, budget,
                   domain);
  }

  /// Seal every shard (used when a table is stored).
  void seal_shards(SortOrder order, VertexId domain = 0) {
    for (auto& s : shards_) s.seal(order, domain);
  }

 private:
  int arity_ = 0;
  int home_slot_ = 0;
  std::vector<ProjTableT<B>> shards_;
};

using DistTable = DistTableT<1>;

extern template class DistTableT<1>;
extern template class DistTableT<2>;
extern template class DistTableT<4>;
extern template class DistTableT<8>;

}  // namespace ccbt
