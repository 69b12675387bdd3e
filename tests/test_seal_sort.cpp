// The sorting seals that remain after path tables are born sorted: the
// distributed engine's shards arrive as flat rows with duplicate keys
// (ProjTableT::from_flat) and seal through the dense counting partition,
// and a born-sorted table re-sealed in another order (kByV0 for storage)
// re-sorts in the dense layout. Either must leave exactly the rows a
// test-local std::stable_sort by the order's comparator plus a run-sum
// gives — across batch widths, table sizes on both sides of the
// threaded-partition cutoff, small and large vertex domains, out-of-domain
// keys (the comparison-sort fallback) and duplicate-heavy inputs. The
// checkpoint restore path additionally relies on re-sealing decoded
// shards.

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

namespace ccbt {
namespace {

template <int B>
using Row = std::pair<TableKey, std::array<Count, B>>;

template <int B>
TableEntryT<B> entry_of(const Row<B>& r) {
  TableEntryT<B> e;
  e.key = r.first;
  for (int l = 0; l < B; ++l) LaneOps<B>::set_lane(e.cnt, l, r.second[l]);
  return e;
}

/// The reference: stable sort by the order's slot, then the remaining key
/// fields, and sum equal-key runs.
template <int B>
std::vector<Row<B>> reference(std::vector<Row<B>> rows, SortOrder order) {
  const int slot = group_slot(order);
  auto fields = [slot](const TableKey& k) {
    return std::array<std::uint64_t, 6>{
        k.v[slot], k.v[0], k.v[1], k.v[2], k.v[3], k.sig};
  };
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    return fields(a.first) < fields(b.first);
  });
  std::vector<Row<B>> out;
  for (const auto& [k, c] : rows) {
    if (!out.empty() && out.back().first == k) {
      for (int l = 0; l < B; ++l) out.back().second[l] += c[l];
    } else {
      out.push_back({k, c});
    }
  }
  return out;
}

template <int B>
std::vector<Row<B>> rows_of(const ProjTableT<B>& t) {
  std::vector<Row<B>> out;
  t.for_each_entry([&](const TableEntryT<B>& e) {
    std::array<Count, B> c;
    for (int l = 0; l < B; ++l) c[l] = LaneOps<B>::lane(e.cnt, l);
    out.push_back({e.key, c});
  });
  return out;
}

template <int B>
void expect_rows_eq(const std::vector<Row<B>>& got,
                    const std::vector<Row<B>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "row " << i;
    ASSERT_EQ(got[i].second, want[i].second) << "row " << i;
  }
}

/// Seal a flat-built table and compare it, and its bucket index when one
/// was built, against the reference.
template <int B>
void expect_seal_matches(const std::vector<Row<B>>& rows, SortOrder order,
                         VertexId domain) {
  std::vector<TableEntryT<B>> flat;
  for (const Row<B>& r : rows) flat.push_back(entry_of<B>(r));
  ProjTableT<B> t = ProjTableT<B>::from_flat(2, std::move(flat));
  t.seal(order, domain);
  EXPECT_EQ(t.order(), order);
  EXPECT_FALSE(t.dedup_pending());
  const std::vector<Row<B>> got = rows_of<B>(t);
  expect_rows_eq<B>(got, reference<B>(rows, order));
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

template <int B>
Row<B> make_row(Rng& rng, VertexId domain, Count max_count) {
  Row<B> r;
  r.first.v[0] = static_cast<VertexId>(rng.below(domain));
  r.first.v[1] = static_cast<VertexId>(rng.below(domain));
  r.first.sig = static_cast<Signature>(rng.below(256));
  r.second.fill(0);
  r.second[rng.below(B)] = 1 + rng.below(max_count);
  return r;
}

template <int B>
void run_distribution_suite() {
  const SortOrder orders[] = {SortOrder::kByV0, SortOrder::kByV1};
  // A small domain (few, crowded buckets) and a large one (mostly empty
  // buckets), each at sizes on both sides of the threaded-partition cutoff.
  for (const VertexId domain : {VertexId{64}, VertexId{100'000}}) {
    for (const SortOrder order : orders) {
      for (const int n : {1500, 70'000}) {
        Rng rng(100 + n + domain);
        std::vector<Row<B>> rows;
        for (int i = 0; i < n; ++i) {
          rows.push_back(make_row<B>(rng, domain, 900));
        }
        expect_seal_matches<B>(rows, order, domain);
      }
      // Duplicate-heavy: a 24-key universe makes ~250-row runs.
      Rng rng(200 + domain);
      std::vector<Row<B>> rows;
      for (int i = 0; i < 6000; ++i) {
        Row<B> r = make_row<B>(rng, 24, 0xFFFF);
        r.first.sig = static_cast<Signature>(1u << rng.below(2));
        rows.push_back(r);
      }
      expect_seal_matches<B>(rows, order, domain);
    }
  }
}

TEST(SealSort, FlatSealMatchesStableSortB2) { run_distribution_suite<2>(); }
TEST(SealSort, FlatSealMatchesStableSortB4) { run_distribution_suite<4>(); }
TEST(SealSort, FlatSealMatchesStableSortB8) { run_distribution_suite<8>(); }

TEST(SealSort, OutOfDomainKeyFallsBackToComparisonSort) {
  // A slot value at or above `domain` (kNoVertex included) cannot be
  // bucketed: the seal falls back to the comparison sort, same rows.
  Rng rng(650);
  std::vector<Row<4>> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(make_row<4>(rng, 80, 50));
  rows[100].first.v[1] = 80;  // == domain
  rows[200].first.v[1] = kNoVertex;
  expect_seal_matches<4>(rows, SortOrder::kByV1, 80);
}

TEST(SealSort, TrackedSlotsOrderInsideBuckets) {
  // Rows equal on (v0, v1) differ only in the tracked slots: the tail
  // order must still be the full key.
  Rng rng(660);
  std::vector<Row<8>> rows;
  for (int i = 0; i < 3000; ++i) {
    Row<8> r = make_row<8>(rng, 6, 40);
    r.first.v[2] = static_cast<VertexId>(rng.below(5));
    r.first.v[3] = static_cast<VertexId>(rng.below(3));
    rows.push_back(r);
  }
  for (const SortOrder order : {SortOrder::kByV0, SortOrder::kByV1}) {
    expect_seal_matches<8>(rows, order, 6);
  }
}

TEST(SealSort, BornSortedTableResealsByV0) {
  // A born-sorted table stored for probing re-seals kByV0 in the dense
  // layout: same rows as sealing the flat rows directly.
  constexpr int B = 8;
  const VertexId domain = 50;
  Rng rng(700);
  std::vector<Row<B>> rows;
  SortedBucketsT<B> buckets;
  FlatRowsT<B> scratch;
  for (VertexId w = 0; w < domain; ++w) {
    scratch.reset();
    for (int i = 0; i < 40; ++i) {
      Row<B> r = make_row<B>(rng, domain, 900);
      r.first.v[1] = w;
      rows.push_back(r);
      scratch.append(r.first, entry_of<B>(r).cnt);
    }
    buckets.close(scratch);
  }
  ProjTableT<B> t = ProjTableT<B>::from_buckets(2, std::move(buckets));
  ASSERT_EQ(t.order(), SortOrder::kByV1);
  for (const SortOrder order : {SortOrder::kByV0, SortOrder::kByV1}) {
    t.seal(order, domain);
    EXPECT_EQ(t.order(), order);
    expect_rows_eq<B>(rows_of<B>(t), reference<B>(rows, order));
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
