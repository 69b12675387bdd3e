// The tables that need an order their rows do not arrive in — a transpose,
// shared (TablePool::oriented) or distributed (DistTable::transposed), a
// unary replica (DistTable::allgathered) and a checkpoint restore — are
// built as summed FlatRows sinks, whose sum only sorts their unique keys.
// Each must leave exactly the rows a test-local std::sort by the full key
// gives, sealed kByV0 with the bucket index a linear scan agrees with:
// at a domain that pays for the index and at one that does not, with keys
// that pack and with wide keys (10 colours), from dense stored tables and
// from a packed born-sorted one. A checkpoint restore must give back its
// table bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/dist/dist_primitives.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

/// One shape of input: its vertex count and colour count.
struct Shape {
  const char* name;
  VertexId n;       // the data graph's vertex count
  std::size_t rows; // rows drawn (equal keys summed)
  int colors;       // 10 colours give signatures that do not pack
  bool indexed;     // whether n pays for a bucket index at this size
};

// 64 and 16000 vertices both pack all four key slots; 16000 is too many
// buckets for 1500 rows (or a rank's share of them) to index.
const Shape kShapes[] = {
    {"indexed packed", 64, 6000, 8, true},
    {"indexed wide", 64, 6000, 10, true},
    {"index-less packed", 16000, 1500, 8, false},
    {"index-less wide", 16000, 1500, 10, false},
};

/// Rows of arity 2 with tracked slots 2 and 3 set now and then, so the
/// full key orders rows equal on (v0, v1).
std::vector<TableEntry> random_rows(const Shape& s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TableEntry> rows(s.rows);
  for (TableEntry& e : rows) {
    e.key.v[0] = static_cast<VertexId>(rng.below(s.n));
    e.key.v[1] = static_cast<VertexId>(rng.below(s.n));
    if (rng.below(4) == 0) e.key.v[2] = static_cast<VertexId>(rng.below(5));
    if (rng.below(8) == 0) e.key.v[3] = static_cast<VertexId>(rng.below(3));
    e.key.sig = static_cast<Signature>(rng.below(Signature{1} << s.colors));
    e.cnt = 1 + rng.below(900);
  }
  return rows;
}

bool key_less(const TableEntry& a, const TableEntry& b) {
  return std::tie(a.key.v, a.key.sig) < std::tie(b.key.v, b.key.sig);
}

/// The reference transpose: equal keys summed, slots 0 and 1 swapped,
/// then std::sort by the full key.
std::vector<TableEntry> reference_transpose(
    const std::vector<TableEntry>& rows) {
  std::vector<TableEntry> out = sum_equal_keys(rows);
  for (TableEntry& e : out) std::swap(e.key.v[0], e.key.v[1]);
  std::sort(out.begin(), out.end(), key_less);
  return out;
}

std::vector<TableEntry> rows_of(const ProjTable& t) {
  std::vector<TableEntry> out;
  t.for_each_entry([&](const TableEntry& e) { out.push_back(e); });
  return out;
}

/// `t` holds exactly `want`, in order, sealed kByV0, and each of its
/// slot-0 groups is the range a scan of `want` finds.
void expect_table_eq(const ProjTable& t, const std::vector<TableEntry>& want,
                     bool indexed, const std::string& what) {
  EXPECT_EQ(t.order(), SortOrder::kByV0) << what;
  EXPECT_EQ(t.has_bucket_index(), indexed) << what;
  const std::vector<TableEntry> got = rows_of(t);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << what << " row " << i;
    ASSERT_EQ(got[i].cnt, want[i].cnt) << what << " row " << i;
  }
  for (std::size_t lo = 0; lo < want.size();) {
    const VertexId v = want[lo].key.v[0];
    std::size_t hi = lo;
    while (hi < want.size() && want[hi].key.v[0] == v) ++hi;
    ASSERT_EQ(t.group_span(0, v), (std::pair<std::size_t, std::size_t>{lo, hi}))
        << what << " group " << v;
    lo = hi;
  }
  // A vertex no row holds has an empty group.
  const VertexId missing = want.empty() ? 0 : want.back().key.v[0] + 1;
  const auto [mlo, mhi] = t.group_span(0, missing);
  EXPECT_EQ(mlo, mhi) << what;
}

TEST(SealSort, SharedTransposeMatchesStdSort) {
  for (const Shape& s : kShapes) {
    const std::vector<TableEntry> rows = random_rows(s, 100 + s.n + s.colors);
    const std::vector<TableEntry> want = reference_transpose(rows);
    // A stored table, and its transpose through the pool's cache.
    TablePool pool(1, s.n);
    pool.store(0, sink_table(2, rows, s.n));
    expect_table_eq(pool.oriented(0, true), want, s.indexed,
                    std::string(s.name) + " pool");
    EXPECT_EQ(&pool.oriented(0, true), &pool.oriented(0, true));
    // Transposing back gives the stored table.
    std::vector<TableEntry> stored = rows_of(pool.get(0));
    expect_table_eq(pool.oriented(0, true).transposed(s.n), stored,
                    s.indexed, std::string(s.name) + " round trip");
  }
}

TEST(SealSort, BornSortedTransposeMatchesStdSort) {
  // A packed path table, read row by row out of its frontier buckets.
  const Shape s{"path", 64, 6000, 8, true};
  const std::vector<TableEntry> rows = random_rows(s, 300);
  const ProjTable path = path_table(2, rows, s.n);
  ASSERT_TRUE(path.packed_flat());
  expect_table_eq(path.transposed(s.n), reference_transpose(rows), true,
                  "born sorted");
}

TEST(SealSort, DistTransposeAndReplicaMatchStdSort) {
  constexpr std::uint32_t kRanks = 4;
  for (const Shape& s : kShapes) {
    const std::vector<TableEntry> rows = random_rows(s, 200 + s.n + s.colors);
    const BlockPartition part(s.n, kRanks);
    VirtualComm comm(kRanks);
    // Stored: every row on the owner of its slot-0 image.
    for (const TableEntry& e : rows) comm.send(0, part.owner(e.key.v[0]), e);
    comm.exchange();
    const DistTable stored =
        DistTable::collect(2, /*home_slot=*/0, comm, 1'000'000, s.n);
    ASSERT_TRUE(stored.well_placed(part)) << s.name;

    const DistTable flipped = stored.transposed(comm, part, 1'000'000);
    EXPECT_TRUE(flipped.well_placed(part)) << s.name;
    const std::vector<TableEntry> want = reference_transpose(rows);
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      std::vector<TableEntry> mine;
      for (const TableEntry& e : want) {
        if (part.owner(e.key.v[0]) == r) mine.push_back(e);
      }
      expect_table_eq(flipped.shard(r), mine, s.indexed,
                      std::string(s.name) + " rank " + std::to_string(r));
    }

    // The replica of the table summed out to its first slot.
    std::vector<TableEntry> unary;
    for (TableEntry e : sum_equal_keys(rows)) {
      e.key.v[1] = e.key.v[2] = e.key.v[3] = kNoVertex;
      unary.push_back(e);
    }
    for (const TableEntry& e : unary) comm.send(0, part.owner(e.key.v[0]), e);
    comm.exchange();
    const DistTable unary_table =
        DistTable::collect(1, /*home_slot=*/0, comm, 1'000'000, s.n);
    std::vector<TableEntry> unary_want = sum_equal_keys(unary);
    std::sort(unary_want.begin(), unary_want.end(), key_less);
    expect_table_eq(unary_table.allgathered(comm, s.n), unary_want,
                    s.indexed, std::string(s.name) + " replica");
  }
}

TEST(SealSort, CheckpointRestoreBitIdentical) {
  // A stored table restored from its checkpoint is its original, row for
  // row and probe for probe, at every shape.
  constexpr std::uint32_t kRanks = 3;
  for (const Shape& s : kShapes) {
    const BlockPartition part(s.n, kRanks);
    VirtualComm comm(kRanks);
    for (const TableEntry& e : random_rows(s, 400 + s.n + s.colors)) {
      comm.send(0, part.owner(e.key.v[0]), e);
    }
    comm.exchange();
    dist::DistPool pool(/*num_blocks=*/1, s.n);
    pool.store(0, DistTable::collect(2, 0, comm, 1'000'000, s.n));
    const CheckpointImage img = pool.checkpoint(/*next_block=*/1, 0);
    dist::DistPool restored(/*num_blocks=*/1, s.n);
    restored.restore(img, kRanks);
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      const ProjTable& want = pool.get(0).shard(r);
      expect_table_eq(restored.get(0).shard(r), rows_of(want),
                      want.has_bucket_index(),
                      std::string(s.name) + " rank " + std::to_string(r));
    }
  }
}

TEST(SealSort, CheckpointReplayBitIdentical) {
  // End to end: a faulty distributed run that restores from checkpoints
  // must report the fault-free counts.
  const CsrGraph g = erdos_renyi(32, 110, 8);
  const QueryGraph q = q_glet2();
  const Plan plan = make_plan(q);
  std::vector<Coloring> lanes;
  for (int l = 0; l < 8; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), 7100 + l);
  }
  const ColoringBatch batch{std::span<const Coloring>(lanes)};
  const DistStats clean = run_plan_distributed(g, plan.tree, batch, 4, {});
  ExecOptions opts;
  opts.dist.faults.seed = 31;
  opts.dist.faults.alloc_fail_rate = 0.05;
  // The eight colorings run one after another on one replay budget:
  // 16 replays for each.
  opts.dist.max_replays = 16 * 8;
  opts.dist.checkpoint_interval = 2;
  const DistStats faulty = run_plan_distributed(g, plan.tree, batch, 4, opts);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(faulty.colorful_lane[l], clean.colorful_lane[l]) << l;
  }
  EXPECT_GT(faulty.faults.replays, 0u);
}

}  // namespace
}  // namespace ccbt
