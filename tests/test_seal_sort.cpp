// The sorting seals that remain after path tables are born sorted: sink
// tables and the distributed engine's non-path shards arrive as flat rows
// with unique keys (ProjTable::from_flat) and seal through the dense
// counting partition, and a born-sorted table re-sealed in another order
// (kByV0 for storage) re-sorts in the dense layout. Either must leave
// exactly the rows a test-local std::stable_sort by the order's
// comparator plus a run-sum gives — across table sizes on both sides of
// the threaded-partition cutoff, small and large vertex domains,
// out-of-domain keys (the comparison-sort fallback) and rows drawn from a
// few keys, summed before the flat adoption. The checkpoint restore path
// additionally relies on re-sealing decoded shards.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

using Row = std::pair<TableKey, Count>;

/// The reference: stable sort by the order's slot, then the remaining key
/// fields, and sum equal-key runs.
std::vector<Row> reference(std::vector<Row> rows, SortOrder order) {
  const int slot = group_slot(order);
  auto fields = [slot](const TableKey& k) {
    return std::array<std::uint64_t, 6>{
        k.v[slot], k.v[0], k.v[1], k.v[2], k.v[3], k.sig};
  };
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    return fields(a.first) < fields(b.first);
  });
  std::vector<Row> out;
  for (const auto& [k, c] : rows) {
    if (!out.empty() && out.back().first == k) {
      out.back().second += c;
    } else {
      out.push_back({k, c});
    }
  }
  return out;
}

std::vector<Row> rows_of(const ProjTable& t) {
  std::vector<Row> out;
  t.for_each_entry([&](const TableEntry& e) { out.push_back({e.key, e.cnt}); });
  return out;
}

void expect_rows_eq(const std::vector<Row>& got, const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "row " << i;
    ASSERT_EQ(got[i].second, want[i].second) << "row " << i;
  }
}

/// Seal a flat-built table of the rows, their equal keys summed first,
/// and compare it, and its bucket index when one was built, against the
/// reference.
void expect_seal_matches(const std::vector<Row>& rows, SortOrder order,
                         VertexId domain) {
  std::vector<TableEntry> flat;
  for (const Row& r : rows) flat.push_back({r.first, r.second});
  ProjTable t = ProjTable::from_flat(2, sum_equal_keys(flat));
  t.seal(order, domain);
  EXPECT_EQ(t.order(), order);
  const std::vector<Row> got = rows_of(t);
  expect_rows_eq(got, reference(rows, order));
  if (!t.has_bucket_index()) return;
  // The index may cover less than `domain` (a seal detects a tighter
  // bound from the keys when `domain` is too sparse to pay off).
  const int slot = group_slot(order);
  const VertexId used = got.empty() ? 0 : got.back().first.v[slot] + 1;
  std::size_t next = 0;
  for (VertexId v = 0; v < used; ++v) {
    const auto [lo, hi] = t.group_span(slot, v);
    ASSERT_EQ(lo, next) << "bucket " << v;
    for (std::size_t i = lo; i < hi; ++i) ASSERT_EQ(got[i].first.v[slot], v);
    next = hi;
  }
  EXPECT_EQ(next, got.size());
}

Row make_row(Rng& rng, VertexId domain, Count max_count) {
  Row r;
  r.first.v[0] = static_cast<VertexId>(rng.below(domain));
  r.first.v[1] = static_cast<VertexId>(rng.below(domain));
  r.first.sig = static_cast<Signature>(rng.below(256));
  r.second = 1 + rng.below(max_count);
  return r;
}

TEST(SealSort, FlatSealMatchesStableSort) {
  const SortOrder orders[] = {SortOrder::kByV0, SortOrder::kByV1};
  // A small domain (few, crowded buckets) and a large one (mostly empty
  // buckets), each at sizes on both sides of the threaded-partition cutoff.
  for (const VertexId domain : {VertexId{64}, VertexId{100'000}}) {
    for (const SortOrder order : orders) {
      for (const int n : {1500, 70'000}) {
        Rng rng(100 + n + domain);
        std::vector<Row> rows;
        for (int i = 0; i < n; ++i) rows.push_back(make_row(rng, domain, 900));
        expect_seal_matches(rows, order, domain);
      }
      // Few keys: a 24-vertex universe and two signatures crowd every
      // bucket, and each key sums about five rows.
      Rng rng(200 + domain);
      std::vector<Row> rows;
      for (int i = 0; i < 6000; ++i) {
        Row r = make_row(rng, 24, 0xFFFF);
        r.first.sig = static_cast<Signature>(1u << rng.below(2));
        rows.push_back(r);
      }
      expect_seal_matches(rows, order, domain);
    }
  }
}

TEST(SealSort, OutOfDomainKeyFallsBackToComparisonSort) {
  // A slot value at or above `domain` (kNoVertex included) cannot be
  // bucketed: the seal falls back to the comparison sort, same rows.
  Rng rng(650);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(make_row(rng, 80, 50));
  rows[100].first.v[1] = 80;  // == domain
  rows[200].first.v[1] = kNoVertex;
  expect_seal_matches(rows, SortOrder::kByV1, 80);
}

TEST(SealSort, TrackedSlotsOrderInsideBuckets) {
  // Rows equal on (v0, v1) differ only in the tracked slots: the tail
  // order must still be the full key.
  Rng rng(660);
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    Row r = make_row(rng, 6, 40);
    r.first.v[2] = static_cast<VertexId>(rng.below(5));
    r.first.v[3] = static_cast<VertexId>(rng.below(3));
    rows.push_back(r);
  }
  for (const SortOrder order : {SortOrder::kByV0, SortOrder::kByV1}) {
    expect_seal_matches(rows, order, 6);
  }
}

TEST(SealSort, BornSortedTableResealsByV0) {
  // A born-sorted table stored for probing re-seals kByV0 in the dense
  // layout: same rows as sealing the flat rows directly.
  const VertexId domain = 50;
  Rng rng(700);
  std::vector<Row> rows;
  const KeyLayout lay = KeyLayout::for_vertices(domain);
  SortedBuckets buckets(lay);
  FlatRows scratch(lay);
  for (VertexId w = 0; w < domain; ++w) {
    scratch.reset();
    for (int i = 0; i < 40; ++i) {
      Row r = make_row(rng, domain, 900);
      r.first.v[1] = w;
      rows.push_back(r);
      scratch.append(r.first, r.second);
    }
    buckets.close(scratch);
  }
  ProjTable t = ProjTable::from_buckets(2, std::move(buckets));
  ASSERT_EQ(t.order(), SortOrder::kByV1);
  for (const SortOrder order : {SortOrder::kByV0, SortOrder::kByV1}) {
    t.seal(order, domain);
    EXPECT_EQ(t.order(), order);
    expect_rows_eq(rows_of(t), reference(rows, order));
  }
}

TEST(SealSort, CheckpointReplayBitIdentical) {
  // End to end: a faulty distributed run that restores from checkpoints
  // must report the fault-free counts after re-sealing the decoded
  // shards.
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
