// DistTable: sharding, collection, transposition, replicas and the halo
// views the distributed path builds read.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ccbt/dist/dist_table.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/rng.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

TableEntry entry(VertexId a, VertexId b, Signature sig, Count cnt) {
  TableEntry e;
  e.key.v[0] = a;
  e.key.v[1] = b;
  e.key.sig = sig;
  e.cnt = cnt;
  return e;
}

/// Route entries to owner(key.v[home_slot]) and collect: each rank sums
/// its rows into a shard sealed kByV0.
DistTable build(const std::vector<TableEntry>& entries, int home_slot,
                VirtualComm& comm, const BlockPartition& part,
                std::size_t budget = 1'000'000) {
  for (const TableEntry& e : entries) {
    comm.send(0, part.owner(e.key.v[home_slot]), e);
  }
  comm.exchange();
  return DistTable::collect(2, home_slot, comm, budget, part.num_vertices());
}

TEST(DistTable, CollectPlacesEntriesAtHomeOwner) {
  VirtualComm comm(4);
  const BlockPartition part(100, 4);
  const DistTable t = build({entry(3, 10, 1, 1), entry(5, 60, 2, 1),
                             entry(7, 99, 4, 1)},
                            /*home_slot=*/1, comm, part);
  EXPECT_TRUE(t.well_placed(part));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.shard(part.owner(10)).size(), 1u);
  EXPECT_EQ(t.shard(part.owner(60)).size(), 1u);
  EXPECT_EQ(t.shard(part.owner(99)).size(), 1u);
}

TEST(DistTable, TotalSumsAcrossShards) {
  VirtualComm comm(3);
  const BlockPartition part(30, 3);
  const DistTable t = build({entry(0, 1, 1, 10), entry(0, 15, 2, 20),
                             entry(0, 29, 4, 30)},
                            /*home_slot=*/1, comm, part);
  EXPECT_EQ(t.total(), 60u);
}

TEST(DistTable, TransposeSwapsSlotsAndRehomes) {
  VirtualComm comm(4);
  const BlockPartition part(100, 4);
  // Homed at slot 0 (the pool's storage convention).
  const DistTable stored =
      build({entry(90, 2, 1, 7)}, /*home_slot=*/0, comm, part);
  const DistTable flipped = stored.transposed(comm, part, 1'000'000);
  EXPECT_TRUE(flipped.well_placed(part));
  ASSERT_EQ(flipped.size(), 1u);
  const auto& shard = flipped.shard(part.owner(2));
  ASSERT_EQ(shard.size(), 1u);
  EXPECT_EQ(entries_of(shard)[0].key.v[0], 2u);
  EXPECT_EQ(entries_of(shard)[0].key.v[1], 90u);
  EXPECT_EQ(entries_of(shard)[0].cnt, 7u);
}

TEST(DistTable, AllgatheredReplicaHoldsEveryShard) {
  VirtualComm comm(4);
  const BlockPartition part(40, 4);
  const DistTable t =
      build({entry(3, 0, 1, 2), entry(3, 0, 2, 5), entry(17, 0, 4, 1),
             entry(39, 0, 8, 9)},
            /*home_slot=*/0, comm, part);
  const CommStats before = comm.stats();
  const ProjTable replica = t.allgathered(comm, 40);
  // One superstep; every row goes to each of the three other ranks.
  EXPECT_EQ(comm.stats().supersteps - before.supersteps, 1u);
  EXPECT_EQ(comm.stats().off_rank_entries - before.off_rank_entries, 12u);
  for (std::uint32_t r = 0; r < 4; ++r) EXPECT_TRUE(comm.inbox(r).empty());
  EXPECT_EQ(replica.order(), SortOrder::kByV0);
  ASSERT_EQ(replica.size(), 4u);
  EXPECT_EQ(group_of(replica, 0, 3).size(), 2u);
  EXPECT_EQ(group_of(replica, 0, 17).size(), 1u);
  EXPECT_EQ(group_of(replica, 0, 39)[0].cnt, 9u);
  EXPECT_EQ(replica.total(), 17u);
}

TEST(DistTable, CollectEnforcesBudget) {
  VirtualComm comm(2);
  const BlockPartition part(10, 2);
  std::vector<TableEntry> many;
  for (VertexId i = 0; i < 10; ++i) many.push_back(entry(0, i, 1u << (i % 8), 1));
  EXPECT_THROW(build(many, 1, comm, part, /*budget=*/3), BudgetExceeded);
}

TEST(DistTable, WellPlacedDetectsMisplacement) {
  VirtualComm comm(2);
  const BlockPartition part(10, 2);
  // Deliberately send an entry to the wrong owner.
  comm.send(0, 0, entry(0, 9, 1, 1));  // owner(9) is rank 1
  comm.exchange();
  const DistTable t = DistTable::collect(2, 1, comm, 1'000'000, 10);
  EXPECT_FALSE(t.well_placed(part));
}

TEST(DistTable, SingleRankDegeneratesToSharedTable) {
  VirtualComm comm(1);
  const BlockPartition part(10, 1);
  const DistTable t = build({entry(1, 2, 1, 1), entry(3, 4, 2, 2)},
                            /*home_slot=*/1, comm, part);
  EXPECT_TRUE(t.well_placed(part));
  EXPECT_EQ(t.shard(0).size(), 2u);
  EXPECT_EQ(comm.stats().off_rank_entries, 0u);
}

// ------------------------------------------------------- halo views

/// Heavy duplication: few anchors and signatures per frontier.
std::vector<TableEntry> duplicate_heavy_rows(VertexId n, std::size_t m,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TableEntry> rows;
  for (std::size_t i = 0; i < m; ++i) {
    rows.push_back(entry(static_cast<VertexId>(rng.below(6)),
                         static_cast<VertexId>(rng.below(n)),
                         static_cast<Signature>(1u << rng.below(4)),
                         1 + rng.below(300)));
  }
  return rows;
}

/// A path table homed at its frontiers: rank r's shard holds the rows
/// of r's vertices, equal keys summed, born sorted kByV1 with a bucket
/// index.
DistTable frontier_table(const std::vector<TableEntry>& rows,
                         const BlockPartition& part, int arity = 2) {
  std::vector<std::vector<TableEntry>> by_rank(part.num_ranks());
  for (const TableEntry& e : rows) {
    by_rank[part.owner(e.key.v[1])].push_back(e);
  }
  std::vector<ProjTable> shards;
  for (const auto& r : by_rank) {
    shards.push_back(path_table(arity, r, part.num_vertices()));
  }
  return DistTable::from_shards(arity, 1, std::move(shards));
}

/// One halo superstep the way an extend sends it: every sender walks its
/// buckets in vertex order and sends bucket x to each rank in
/// `readers(x)` other than itself. Returns the rows each rank received.
template <typename Readers>
std::vector<std::vector<TableEntry>> send_halo(const DistTable& t,
                                               VirtualComm& comm,
                                               const BlockPartition& part,
                                               Readers&& readers) {
  std::vector<std::vector<TableEntry>> got(part.num_ranks());
  for (std::uint32_t s = 0; s < part.num_ranks(); ++s) {
    const std::vector<TableEntry> rows = entries_of(t.shard(s));
    for (VertexId x = part.begin(s); x < part.end(s); ++x) {
      const auto [lo, hi] = t.shard(s).group_span(1, x);
      for (const std::uint32_t d : readers(x)) {
        if (d == s) continue;
        for (std::size_t i = lo; i < hi; ++i) {
          const TableEntry& e = rows[i];
          comm.send(s, d, e);
          got[d].push_back(e);
        }
      }
    }
  }
  comm.exchange();
  return got;
}

/// Every rank reads the buckets of a pseudo-random subset of vertices.
std::vector<std::uint32_t> some_readers(VertexId x, std::uint32_t ranks) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t d = 0; d < ranks; ++d) {
    if ((x * 7 + d * 3) % 4 != 0) out.push_back(d);
  }
  return out;
}

/// Rank r's halo view must equal the path table built born sorted from
/// its own rows plus the halo rows it received (unique keys: each bucket
/// lives on one shard): rows, order and bucket index, packed unless a key
/// does not pack in the graph's layout, with no layout stats of its own.
void expect_halo_views(const std::vector<TableEntry>& rows, VertexId n,
                       std::uint32_t ranks, int arity = 2) {
  const BlockPartition part(n, ranks);
  const DistTable t = frontier_table(rows, part, arity);
  VirtualComm comm(ranks);
  const auto got_halo = send_halo(t, comm, part, [&](VertexId x) {
    return some_readers(x, ranks);
  });
  for (std::uint32_t r = 0; r < ranks; ++r) {
    std::vector<TableEntry> mine = got_halo[r];
    t.shard(r).for_each_entry([&](const TableEntry& e) { mine.push_back(e); });
    const ProjTable ref = path_table(arity, mine, n);
    const ProjTable got = t.halo_view(r, comm, part);
    EXPECT_TRUE(comm.inbox(r).empty()) << "inbox " << r << " not emptied";
    EXPECT_EQ(got.order(), SortOrder::kByV1);
    EXPECT_TRUE(got.has_bucket_index());
    EXPECT_EQ(got.layout().rows, 0u);
    ASSERT_EQ(got.size(), ref.size()) << "rank " << r;
    bool packable = true;
    const std::vector<TableEntry> got_rows = entries_of(got);
    const std::vector<TableEntry> ref_rows = entries_of(ref);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const TableEntry& g = got_rows[i];
      const TableEntry& e = ref_rows[i];
      EXPECT_EQ(g.key, e.key) << "rank " << r << " row " << i;
      EXPECT_EQ(g.cnt, e.cnt) << "rank " << r << " row " << i;
      packable = packable && KeyLayout::for_vertices(n).packable(e.key);
    }
    for (VertexId v = 0; v < n + 2; ++v) {
      const auto [glo, ghi] = got.group_span(1, v);
      const auto [rlo, rhi] = ref.group_span(1, v);
      EXPECT_EQ(ghi - glo, rhi - rlo) << "rank " << r << " bucket " << v;
      if (rhi > rlo) EXPECT_EQ(glo, rlo) << "rank " << r << " bucket " << v;
    }
    EXPECT_EQ(is_packed(got), packable) << "rank " << r;
  }
}

TEST(DistTableHaloView, MatchesBornSortedTable) {
  // Keys summed before sharding, rows packed.
  const auto dup = duplicate_heavy_rows(50, 2000, 8);
  expect_halo_views(dup, 50, 4);
  // One rank; more ranks than vertices (most ranks own nothing).
  expect_halo_views(dup, 50, 1);
  expect_halo_views(duplicate_heavy_rows(5, 200, 11), 5, 8);
  // An empty rank: every frontier below 12 lives on rank 0.
  expect_halo_views(duplicate_heavy_rows(12, 300, 13), 50, 4);
  // Counts past 0xFFFF, then past 2^32 - 1, on frontier 7 next to
  // ordinary rows: the views stay packed.
  std::vector<TableEntry> big = duplicate_heavy_rows(50, 300, 17);
  big.push_back(entry(3, 7, 2, 0x12000));
  expect_halo_views(big, 50, 4);
  big.push_back(entry(4, 7, 1, 0x100000000ull));
  expect_halo_views(big, 50, 4);
  // A tracked slot >= 2, which the 50-vertex key layout packs as well.
  std::vector<TableEntry> tracked = duplicate_heavy_rows(50, 300, 19);
  for (std::size_t i = 0; i < tracked.size(); i += 3) {
    tracked[i].key.v[2] = tracked[i].key.v[0] + 1;
  }
  expect_halo_views(tracked, 50, 4, /*arity=*/3);
  // A signature past 8 bits does not pack, so those views are dense.
  for (std::size_t i = 0; i < tracked.size(); i += 7) {
    tracked[i].key.sig |= 0x100;
  }
  expect_halo_views(tracked, 50, 4, /*arity=*/3);
}

TEST(DistTableHaloView, RowOutOfPlaceThrows) {
  const BlockPartition part(10, 2);
  const DistTable t = frontier_table({entry(0, 2, 1, 1)}, part);
  // A halo row of a bucket rank 0 owns itself.
  VirtualComm comm(2);
  comm.send(1, 0, entry(0, 3, 1, 1));
  comm.exchange();
  EXPECT_THROW((void)t.halo_view(0, comm, part), Error);
  // Halo rows going back to an earlier bucket.
  comm.send(0, 1, entry(0, 4, 1, 1));
  comm.send(0, 1, entry(0, 2, 1, 1));
  comm.exchange();
  EXPECT_THROW((void)t.halo_view(1, comm, part), Error);
}

/// Views on one comm reuse its inboxes: a second halo with smaller
/// inboxes, and a rank that receives nothing, gives exactly the views a
/// fresh comm gives from the same table.
TEST(DistTableHaloView, ReusedCommMatchesFresh) {
  constexpr VertexId kN = 60;
  constexpr std::uint32_t kRanks = 4;
  const BlockPartition part(kN, kRanks);
  const DistTable big =
      frontier_table(duplicate_heavy_rows(kN, 3000, 23), part);
  const DistTable small =
      frontier_table(duplicate_heavy_rows(kN, 400, 29), part);
  const auto all = [&](VertexId) {
    return std::vector<std::uint32_t>{0, 1, 2, 3};
  };
  const auto not_two = [&](VertexId) {
    return std::vector<std::uint32_t>{0, 1, 3};
  };

  VirtualComm comm(kRanks);
  send_halo(big, comm, part, all);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    (void)big.halo_view(r, comm, part);
  }
  send_halo(small, comm, part, not_two);
  VirtualComm fresh_comm(kRanks);
  send_halo(small, fresh_comm, part, not_two);
  EXPECT_TRUE(comm.inbox(2).empty());
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const ProjTable got = small.halo_view(r, comm, part);
    const ProjTable want = small.halo_view(r, fresh_comm, part);
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    EXPECT_EQ(is_packed(got), is_packed(want)) << "rank " << r;
    const std::vector<TableEntry> got_rows = entries_of(got);
    const std::vector<TableEntry> want_rows = entries_of(want);
    for (std::size_t i = 0; i < want.size(); ++i) {
      const TableEntry& g = got_rows[i];
      const TableEntry& w = want_rows[i];
      EXPECT_EQ(g.key, w.key) << "rank " << r << " row " << i;
      EXPECT_EQ(g.cnt, w.cnt) << "rank " << r << " row " << i;
    }
    for (VertexId v = 0; v < kN; ++v) {
      EXPECT_EQ(got.group_span(1, v), want.group_span(1, v))
          << "rank " << r << " bucket " << v;
    }
  }
}

}  // namespace
}  // namespace ccbt
