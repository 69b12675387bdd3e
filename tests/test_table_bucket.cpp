// Property tests for the bucket-indexed table layer. A table is born in
// its order — a summed sink sealed kByV0 (ProjTable::from_sink), a path
// table built bucket by bucket sealed kByV1 (from_buckets) — and must hold
// exactly the rows a naive stable comparison sort of its summed input
// gives (every key field and count, in the same positions), while group()
// through the O(1) bucket index returns exactly the ranges a linear scan
// finds: across randomized arities, orders, explicit and detected
// domains, and crowded small-domain inputs whose equal keys are summed.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

bool less_full_v0(const TableEntry& a, const TableEntry& b) {
  if (a.key.v[0] != b.key.v[0]) return a.key.v[0] < b.key.v[0];
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

bool less_full_v1(const TableEntry& a, const TableEntry& b) {
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  return less_full_v0(a, b);
}

/// Reference table: the rows with equal keys summed, in a stable
/// comparison sort of the whole vector by the order's comparator.
std::vector<TableEntry> reference_sorted(const std::vector<TableEntry>& rows,
                                         SortOrder order) {
  std::vector<TableEntry> entries = sum_equal_keys(rows);
  std::stable_sort(entries.begin(), entries.end(),
                   order == SortOrder::kByV0 ? less_full_v0 : less_full_v1);
  return entries;
}

/// Reference group: linear scan over the reference-sorted entries.
std::vector<TableEntry> reference_group(
    const std::vector<TableEntry>& sorted, int slot, VertexId v) {
  std::vector<TableEntry> out;
  for (const TableEntry& e : sorted) {
    if (e.key.v[slot] == v) out.push_back(e);
  }
  return out;
}

/// Random entries over `domain` vertices; `arity` leading slots used,
/// remaining slots sometimes carry tracked vertices, sometimes kNoVertex.
/// Low domains draw many rows per key and crowd every bucket.
std::vector<TableEntry> random_entries(Rng& rng, std::size_t n,
                                       VertexId domain, int arity,
                                       bool tracked_slots) {
  std::vector<TableEntry> entries(n);
  for (TableEntry& e : entries) {
    for (int s = 0; s < arity; ++s) {
      e.key.v[s] = static_cast<VertexId>(rng.below(domain));
    }
    if (tracked_slots) {
      for (int s = std::max(arity, 2); s < 4; ++s) {
        if (rng.below(2) == 0) {
          e.key.v[s] = static_cast<VertexId>(rng.below(domain));
        }
      }
    }
    e.key.sig = static_cast<Signature>(rng.below(64));
    e.cnt = rng.below(1000) + 1;
  }
  return entries;
}

std::vector<TableEntry> rows_of(const ProjTable& t) {
  std::vector<TableEntry> out;
  t.for_each_entry([&](const TableEntry& e) { out.push_back(e); });
  return out;
}

bool same_entries(std::span<const TableEntry> got,
                  std::span<const TableEntry> want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].key == want[i].key) || got[i].cnt != want[i].cnt) {
      return false;
    }
  }
  return true;
}

/// How the property builds its table.
enum class Build { kSinkExplicitDomain, kSinkDetectedDomain, kPath };

class BucketIndexProperty
    : public ::testing::TestWithParam<std::tuple<int, Build>> {};

TEST_P(BucketIndexProperty, MatchesNaiveReferenceAcrossSeeds) {
  const auto [arity, build] = GetParam();
  const SortOrder order =
      build == Build::kPath ? SortOrder::kByV1 : SortOrder::kByV0;
  const int slot = order == SortOrder::kByV0 ? 0 : 1;
  if (slot >= arity) GTEST_SKIP() << "order needs slot " << slot;

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(100 * seed + arity);
    // Small domains force heavy duplication; larger ones exercise sparse
    // buckets.
    const VertexId domain =
        static_cast<VertexId>(rng.below(3) == 0 ? 7 : 400);
    const std::size_t n = 1 + rng.below(seed % 3 == 0 ? 40000 : 500);
    const std::vector<TableEntry> raw =
        random_entries(rng, n, domain, arity, /*tracked_slots=*/true);

    const ProjTable t =
        build == Build::kPath ? path_table(arity, raw, domain)
        : build == Build::kSinkExplicitDomain
            ? sink_table(arity, raw, domain)
            : ProjTable::from_sink(arity, [&] {
                FlatRows sink(KeyLayout::for_vertices(domain));
                for (const TableEntry& e : raw) sink.add(e.key, e.cnt);
                sink.sum_duplicates();
                return sink;
              }(), /*domain=*/0);
    EXPECT_EQ(t.order(), order);
    EXPECT_TRUE(t.has_bucket_index());
    const std::vector<TableEntry> ref = reference_sorted(raw, order);
    const std::vector<TableEntry> got = rows_of(t);
    ASSERT_TRUE(same_entries(got, ref));

    // Totals survive the sums.
    Count ref_total = 0;
    for (const TableEntry& e : ref) ref_total += e.cnt;
    EXPECT_EQ(t.total(), ref_total);

    // Every group (probed at members, boundaries and misses) matches the
    // reference scan exactly.
    std::vector<TableEntry> scratch;
    for (VertexId v : {VertexId{0}, VertexId{3}, domain / 2, domain - 1,
                       domain, domain + 17}) {
      const auto want = reference_group(ref, slot, v);
      EXPECT_TRUE(same_entries(t.group_expanded(slot, v, scratch), want))
          << "v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AritiesOrdersDomains, BucketIndexProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(Build::kSinkExplicitDomain,
                                         Build::kSinkDetectedDomain,
                                         Build::kPath)));

TEST(BucketIndex, IndexedAndSearchGroupsAgree) {
  // The same rows probed through the bucket index and through the
  // binary-search fallback must agree: one table is built with the
  // domain (index built), one with an out-of-domain key planted (which
  // leaves it without an index).
  Rng rng(7);
  const std::vector<TableEntry> raw =
      random_entries(rng, 2000, 150, 2, /*tracked_slots=*/false);
  const ProjTable indexed = sink_table(2, raw, 150);
  ASSERT_TRUE(indexed.has_bucket_index());

  TableEntry far{};
  far.key.v[0] = 3'000'000'000u;  // domain detection declines this
  far.key.v[1] = 1;
  far.cnt = 1;
  std::vector<TableEntry> raw2 = raw;
  raw2.push_back(far);
  const ProjTable searched = sink_table(2, raw2, 150);
  ASSERT_FALSE(searched.has_bucket_index());

  for (VertexId v = 0; v < 150; ++v) {
    EXPECT_TRUE(same_entries(indexed.group(0, v), searched.group(0, v)))
        << "v=" << v;
  }
}

TEST(BucketIndex, TinyTableOnHugeDomainDetectsItsOwn) {
  // A domain far past the row count does not pay for an index; the one
  // the rows show for themselves does.
  Rng rng(13);
  const std::vector<TableEntry> raw =
      random_entries(rng, 5000, 64, 2, /*tracked_slots=*/false);
  const ProjTable t = sink_table(2, raw, 1'000'000);
  EXPECT_TRUE(t.has_bucket_index());
  EXPECT_TRUE(same_entries(t.entries(),
                           reference_sorted(raw, SortOrder::kByV0)));
  EXPECT_EQ(t.group_span(0, 64), (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(BucketIndex, EmptyAndSingleton) {
  const ProjTable empty(2);
  EXPECT_TRUE(empty.group(0, 5).empty());
  const ProjTable empty_sink = sink_table(2, {}, 100);
  EXPECT_TRUE(empty_sink.group(0, 5).empty());

  TableEntry e{};
  e.key.v[0] = 42;
  e.key.v[1] = 7;
  e.cnt = 3;
  const ProjTable one = sink_table(2, {e}, 100);
  ASSERT_EQ(one.group(0, 42).size(), 1u);
  EXPECT_TRUE(one.group(0, 41).empty());
  EXPECT_TRUE(one.group(0, 99).empty());
  EXPECT_TRUE(one.group(0, 1000).empty());
}

}  // namespace
}  // namespace ccbt
