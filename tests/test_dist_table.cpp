// DistTable: sharding, collection, resharding and transposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ccbt/dist/dist_table.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/rng.hpp"

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

/// Route entries to owner(key.v[home_slot]) and collect.
DistTable build(const std::vector<TableEntry>& entries, int home_slot,
                VirtualComm& comm, const BlockPartition& part,
                std::size_t budget = 1'000'000) {
  for (const TableEntry& e : entries) {
    comm.send(0, part.owner(e.key.v[home_slot]), e);
  }
  comm.exchange();
  return DistTable::collect(2, home_slot, comm, SortOrder::kByV1, budget);
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

TEST(DistTable, CollectAccumulatesDuplicateKeys) {
  VirtualComm comm(2);
  const BlockPartition part(10, 2);
  const DistTable t = build({entry(1, 8, 3, 2), entry(1, 8, 3, 5)},
                            /*home_slot=*/1, comm, part);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.total(), 7u);
}

TEST(DistTable, TotalSumsAcrossShards) {
  VirtualComm comm(3);
  const BlockPartition part(30, 3);
  const DistTable t = build({entry(0, 1, 1, 10), entry(0, 15, 2, 20),
                             entry(0, 29, 4, 30)},
                            /*home_slot=*/1, comm, part);
  EXPECT_EQ(t.total(), 60u);
}

TEST(DistTable, ReshardMovesEntriesToNewHome) {
  VirtualComm comm(4);
  const BlockPartition part(100, 4);
  DistTable by_v = build({entry(90, 2, 1, 1), entry(30, 3, 2, 1)},
                         /*home_slot=*/1, comm, part);
  ASSERT_TRUE(by_v.well_placed(part));
  const DistTable by_u =
      by_v.resharded(0, comm, part, SortOrder::kByV0, 1'000'000);
  EXPECT_EQ(by_u.home_slot(), 0);
  EXPECT_TRUE(by_u.well_placed(part));
  EXPECT_EQ(by_u.size(), 2u);
  // Entries now live with their slot-0 vertex (ranks 3 and 1).
  EXPECT_EQ(by_u.shard(part.owner(90)).size(), 1u);
  EXPECT_EQ(by_u.shard(part.owner(30)).size(), 1u);
}

TEST(DistTable, ReshardPreservesContent) {
  VirtualComm comm(4);
  const BlockPartition part(64, 4);
  const std::vector<TableEntry> entries{
      entry(1, 40, 1, 3), entry(2, 50, 2, 4), entry(63, 0, 8, 5)};
  DistTable t = build(entries, 1, comm, part);
  const ProjTable before = t.gather();
  const DistTable r = t.resharded(0, comm, part, SortOrder::kByV0, 1'000'000);
  const ProjTable after = r.gather();
  EXPECT_EQ(before.size(), after.size());
  EXPECT_EQ(before.total(), after.total());
}

TEST(DistTable, TransposeSwapsSlotsAndRehomes) {
  VirtualComm comm(4);
  const BlockPartition part(100, 4);
  DistTable t = build({entry(90, 2, 1, 7)}, /*home_slot=*/1, comm, part);
  // Reshard to home 0 first (the pool's storage convention).
  DistTable stored = t.resharded(0, comm, part, SortOrder::kByV0, 1'000'000);
  const DistTable flipped = stored.transposed(comm, part, 1'000'000);
  EXPECT_TRUE(flipped.well_placed(part));
  ASSERT_EQ(flipped.size(), 1u);
  const auto& shard = flipped.shard(part.owner(2));
  ASSERT_EQ(shard.size(), 1u);
  EXPECT_EQ(shard.entries()[0].key.v[0], 2u);
  EXPECT_EQ(shard.entries()[0].key.v[1], 90u);
  EXPECT_EQ(shard.entries()[0].cnt, 7u);
}

TEST(DistTable, GatherAccumulatesAcrossShards) {
  VirtualComm comm(3);
  const BlockPartition part(30, 3);
  // Same key routed from two different logical producers.
  const DistTable t = build({entry(4, 25, 1, 2), entry(4, 25, 1, 3)},
                            /*home_slot=*/1, comm, part);
  const ProjTable flat = t.gather();
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat.total(), 5u);
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
  const DistTable t =
      DistTable::collect(2, 1, comm, SortOrder::kByV1, 1'000'000);
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

// ------------------------------------------------- born-sorted collect

template <int B>
TableEntryT<B> lane_entry(VertexId a, VertexId b, Signature sig, int lane,
                          Count cnt) {
  TableEntryT<B> e;
  e.key.v[0] = a;
  e.key.v[1] = b;
  e.key.sig = sig;
  LaneOps<B>::set_lane(e.cnt, lane, cnt);
  return e;
}

/// Deliver `rows` to the owners of their frontiers, each row from a
/// different sender, and collect them born sorted. Every shard must equal
/// from_flat + seal(kByV1) over the same delivered rows: rows, order and
/// bucket index, with the narrowest layout that holds its merged counts
/// (dense when a key does not pack or `wide`).
template <int B>
void expect_born_sorted_collect(const std::vector<TableEntryT<B>>& rows,
                                VertexId n, std::uint32_t ranks, bool wide,
                                int arity = 2) {
  VirtualCommT<B> comm(ranks);
  const BlockPartition part(n, ranks);
  std::vector<std::vector<TableEntryT<B>>> delivered(ranks);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint32_t to = part.owner(rows[i].key.v[1]);
    comm.send(static_cast<std::uint32_t>(i % ranks), to, rows[i]);
    delivered[to].push_back(rows[i]);
  }
  comm.exchange();
  AccumTelemetry accum;
  typename DistTableT<B>::FrontierScratch scratch;
  const DistTableT<B> t = DistTableT<B>::collect_by_frontier(
      arity, comm, part, 1'000'000, wide, scratch, &accum);
  EXPECT_EQ(accum.phases, 1u);
  EXPECT_EQ(accum.rows, rows.size());
  EXPECT_EQ(t.home_slot(), 1);
  EXPECT_EQ(t.arity(), arity);
  ASSERT_EQ(t.num_shards(), ranks);
  EXPECT_TRUE(t.well_placed(part));
  for (std::uint32_t r = 0; r < ranks; ++r) {
    EXPECT_TRUE(comm.inbox(r).empty()) << "inbox " << r << " not emptied";
    ProjTableT<B> ref =
        ProjTableT<B>::from_flat(arity, std::vector(delivered[r]));
    ref.seal(SortOrder::kByV1, n);
    const ProjTableT<B>& got = t.shard(r);
    EXPECT_EQ(got.order(), SortOrder::kByV1);
    EXPECT_FALSE(got.dedup_pending());
    ASSERT_EQ(got.size(), ref.size()) << "rank " << r;
    TableEntryT<B> gtmp, rtmp;
    bool packable = true;
    Count max_count = 0;
    std::uint64_t occupied = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const TableEntryT<B>& g = got.row_at(i, gtmp);
      const TableEntryT<B>& e = ref.row_at(i, rtmp);
      EXPECT_EQ(g.key, e.key) << "rank " << r << " row " << i;
      EXPECT_EQ(g.cnt, e.cnt) << "rank " << r << " row " << i;
      packable = packable && packable_key(e.key);
      for (int l = 0; l < B; ++l) {
        max_count = std::max(max_count, LaneOps<B>::lane(e.cnt, l));
        occupied += LaneOps<B>::lane(e.cnt, l) != 0;
      }
    }
    for (VertexId v = 0; v < n + 2; ++v) {
      const auto [glo, ghi] = got.group_span(1, v);
      const auto [rlo, rhi] = ref.group_span(1, v);
      EXPECT_EQ(ghi - glo, rhi - rlo) << "rank " << r << " bucket " << v;
      if (rhi > rlo) EXPECT_EQ(glo, rlo) << "rank " << r << " bucket " << v;
    }
    if (ref.size() > 0 && !wide && packable && max_count <= 0xFFFFFFFFull) {
      EXPECT_TRUE(got.packed_flat()) << "rank " << r;
      EXPECT_EQ(got.layout().width, choose_payload_width(max_count));
      EXPECT_EQ(got.layout().rows, ref.size());
      EXPECT_EQ(got.layout().lanes_occupied, occupied);
      EXPECT_EQ(got.layout().max_count, max_count);
    } else {
      EXPECT_FALSE(got.packed_flat()) << "rank " << r;
      EXPECT_NO_THROW((void)got.entries());
    }
  }
}

/// Heavy duplication: few anchors and signatures per frontier, so equal
/// keys arrive from several senders.
template <int B>
std::vector<TableEntryT<B>> duplicate_heavy_rows(VertexId n, std::size_t m,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TableEntryT<B>> rows;
  for (std::size_t i = 0; i < m; ++i) {
    rows.push_back(lane_entry<B>(
        static_cast<VertexId>(rng.below(6)),
        static_cast<VertexId>(rng.below(n)),
        static_cast<Signature>(1u << rng.below(4)),
        static_cast<int>(rng.below(B)), 1 + rng.below(300)));
  }
  return rows;
}

template <int B>
void run_born_sorted_collect_suite() {
  // Duplicate keys from several senders, lanes narrow, and the same rows
  // with lane compression off.
  const auto dup = duplicate_heavy_rows<B>(50, 2000, 7 + B);
  expect_born_sorted_collect<B>(dup, 50, 4, /*wide=*/false);
  expect_born_sorted_collect<B>(dup, 50, 4, /*wide=*/true);
  // One rank; more ranks than vertices (most ranks own nothing).
  expect_born_sorted_collect<B>(dup, 50, 1, /*wide=*/false);
  expect_born_sorted_collect<B>(duplicate_heavy_rows<B>(5, 200, 11), 5, 8,
                                /*wide=*/false);
  // An empty rank: every frontier below 12 lives on rank 0.
  expect_born_sorted_collect<B>(duplicate_heavy_rows<B>(12, 300, 13), 50, 4,
                                /*wide=*/false);
  // u16 -> u32 -> wide inside one bucket: run sums past 0xFFFF, then past
  // 2^32 - 1, all on frontier 7 next to ordinary rows.
  std::vector<TableEntryT<B>> esc = duplicate_heavy_rows<B>(50, 300, 17);
  esc.push_back(lane_entry<B>(3, 7, 2, 0, 0x9000));
  esc.push_back(lane_entry<B>(3, 7, 2, 0, 0x9000));
  expect_born_sorted_collect<B>(esc, 50, 4, /*wide=*/false);
  esc.push_back(lane_entry<B>(4, 7, 1, B - 1, 0x80000000ull));
  esc.push_back(lane_entry<B>(4, 7, 1, B - 1, 0x80000000ull));
  expect_born_sorted_collect<B>(esc, 50, 4, /*wide=*/false);
  // A tracked slot >= 2: those keys do not pack, so their shard is dense.
  std::vector<TableEntryT<B>> tracked = duplicate_heavy_rows<B>(50, 300, 19);
  for (std::size_t i = 0; i < tracked.size(); i += 3) {
    tracked[i].key.v[2] = tracked[i].key.v[0] + 1;
  }
  expect_born_sorted_collect<B>(tracked, 50, 4, /*wide=*/false, /*arity=*/3);
}

TEST(DistTableBornSorted, CollectMatchesFlatSealB1) {
  run_born_sorted_collect_suite<1>();
}
TEST(DistTableBornSorted, CollectMatchesFlatSealB2) {
  run_born_sorted_collect_suite<2>();
}
TEST(DistTableBornSorted, CollectMatchesFlatSealB8) {
  run_born_sorted_collect_suite<8>();
}

TEST(DistTableBornSorted, BudgetBoundsDeduplicatedRows) {
  // 40 delivered rows collapse to 10 keys: a budget of 10 holds, 9 throws.
  const BlockPartition part(10, 2);
  for (const std::size_t budget : {std::size_t{10}, std::size_t{9}}) {
    VirtualCommT<8> comm(2);
    for (int rep = 0; rep < 4; ++rep) {
      for (VertexId v = 0; v < 10; ++v) {
        comm.send(rep % 2, part.owner(v), lane_entry<8>(1, v, 1, rep, 1));
      }
    }
    comm.exchange();
    DistTableT<8>::FrontierScratch scratch;
    if (budget == 10) {
      const DistTableT<8> t = DistTableT<8>::collect_by_frontier(
          2, comm, part, budget, /*wide=*/false, scratch);
      EXPECT_EQ(t.size(), 10u);
    } else {
      EXPECT_THROW((void)DistTableT<8>::collect_by_frontier(
                       2, comm, part, budget, /*wide=*/false, scratch),
                   BudgetExceeded);
    }
  }
}

TEST(DistTableBornSorted, RowOffItsFrontierOwnerThrows) {
  VirtualCommT<1> comm(2);
  const BlockPartition part(10, 2);
  comm.send(0, 0, entry(0, 9, 1, 1));  // owner(9) is rank 1
  comm.exchange();
  DistTable::FrontierScratch scratch;
  EXPECT_THROW((void)DistTable::collect_by_frontier(2, comm, part, 100,
                                                    /*wide=*/false, scratch),
               Error);
}

/// Deliver `rows` to the owners of their frontiers, round-robin over the
/// senders.
template <int B>
void deliver_to_frontiers(VirtualCommT<B>& comm, const BlockPartition& part,
                          const std::vector<TableEntryT<B>>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    comm.send(static_cast<std::uint32_t>(i % comm.num_ranks()),
              part.owner(rows[i].key.v[1]), rows[i]);
  }
  comm.exchange();
}

/// Collects on one comm with one scratch reuse the inboxes and the
/// partition buffers: a second phase with smaller inboxes, and a rank
/// that receives nothing, builds exactly the shards a fresh comm and
/// scratch build from the same rows.
template <int B>
void expect_collect_reuse_matches_fresh() {
  constexpr VertexId kN = 60;
  constexpr std::uint32_t kRanks = 4;
  constexpr std::size_t kBudget = 1'000'000;
  const BlockPartition part(kN, kRanks);
  std::vector<TableEntryT<B>> small = duplicate_heavy_rows<B>(kN, 400, 29);
  std::erase_if(small, [&](const TableEntryT<B>& e) {
    return part.owner(e.key.v[1]) == 2;
  });

  VirtualCommT<B> comm(kRanks);
  typename DistTableT<B>::FrontierScratch scratch;
  deliver_to_frontiers(comm, part, duplicate_heavy_rows<B>(kN, 3000, 23));
  (void)DistTableT<B>::collect_by_frontier(2, comm, part, kBudget,
                                           /*wide=*/false, scratch);
  deliver_to_frontiers(comm, part, small);
  const DistTableT<B> reused = DistTableT<B>::collect_by_frontier(
      2, comm, part, kBudget, /*wide=*/false, scratch);

  VirtualCommT<B> fresh_comm(kRanks);
  typename DistTableT<B>::FrontierScratch fresh_scratch;
  deliver_to_frontiers(fresh_comm, part, small);
  const DistTableT<B> fresh = DistTableT<B>::collect_by_frontier(
      2, fresh_comm, part, kBudget, /*wide=*/false, fresh_scratch);

  EXPECT_EQ(reused.shard(2).size(), 0u);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const ProjTableT<B>& got = reused.shard(r);
    const ProjTableT<B>& want = fresh.shard(r);
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    EXPECT_EQ(got.packed_flat(), want.packed_flat()) << "rank " << r;
    EXPECT_EQ(got.layout().width, want.layout().width) << "rank " << r;
    TableEntryT<B> gtmp, wtmp;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const TableEntryT<B>& g = got.row_at(i, gtmp);
      const TableEntryT<B>& w = want.row_at(i, wtmp);
      EXPECT_EQ(g.key, w.key) << "rank " << r << " row " << i;
      EXPECT_EQ(g.cnt, w.cnt) << "rank " << r << " row " << i;
    }
    for (VertexId v = 0; v < kN; ++v) {
      EXPECT_EQ(got.group_span(1, v), want.group_span(1, v))
          << "rank " << r << " bucket " << v;
    }
  }
}

TEST(DistTableBornSorted, ReusedCommAndScratchMatchFreshB1) {
  expect_collect_reuse_matches_fresh<1>();
}
TEST(DistTableBornSorted, ReusedCommAndScratchMatchFreshB8) {
  expect_collect_reuse_matches_fresh<8>();
}

}  // namespace
}  // namespace ccbt
