// Property tests for the bucket-indexed table layer: seal() with a
// counting partition plus per-bucket sorts must produce entry-identical
// arrays to a naive stable comparison sort (every key field and count, in
// the same positions), and group() through the O(1) bucket index must
// return exactly the ranges a binary search finds — across randomized
// arities, sort orders, domains and crowded small-domain inputs, whose
// equal keys are summed before the table adopts them.

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

/// Reference seal: a stable comparison sort of the whole entry vector.
std::vector<TableEntry> reference_sorted(std::vector<TableEntry> entries,
                                         SortOrder order) {
  std::stable_sort(entries.begin(), entries.end(),
                   group_slot(order) == 0 ? less_full_v0 : less_full_v1);
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

/// Random entries over `domain` vertices with unique keys (the input
/// from_flat takes); `arity` leading slots used, remaining slots
/// sometimes carry tracked vertices, sometimes kNoVertex. Low domains
/// draw many rows per key, summed into one, and crowd every bucket.
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
  return sum_equal_keys(entries);
}

ProjTable table_of(int arity, const std::vector<TableEntry>& entries) {
  return ProjTable::from_flat(arity, std::vector(entries));
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

void expect_entry_identical(const ProjTable& sealed,
                            const std::vector<TableEntry>& reference) {
  ASSERT_EQ(sealed.size(), reference.size());
  EXPECT_TRUE(same_entries(sealed.entries(), reference));
}

class BucketSealProperty
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(BucketSealProperty, MatchesNaiveReferenceAcrossSeeds) {
  const auto [arity, order_idx, explicit_domain] = GetParam();
  // Index 1 reseals kByV0 from a table already sealed kByV1: the re-sort
  // out of another order must reach the same entries and index.
  const SortOrder order =
      order_idx == 2 ? SortOrder::kByV1 : SortOrder::kByV0;
  const int slot = group_slot(order);
  if (slot >= arity) GTEST_SKIP() << "order needs slot " << slot;

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(100 * seed + arity);
    // Small domains force heavy duplication; larger ones exercise sparse
    // buckets. Sizes straddle the parallel threshold.
    const VertexId domain =
        static_cast<VertexId>(rng.below(3) == 0 ? 7 : 400);
    const std::size_t n = 1 + rng.below(seed % 3 == 0 ? 40000 : 500);
    const std::vector<TableEntry> raw =
        random_entries(rng, n, domain, arity, /*tracked_slots=*/true);

    ProjTable t = table_of(arity, raw);
    const VertexId seal_domain = explicit_domain ? domain : 0;
    if (order_idx == 1) t.seal(SortOrder::kByV1, seal_domain);
    t.seal(order, seal_domain);
    const std::vector<TableEntry> ref = reference_sorted(raw, order);
    expect_entry_identical(t, ref);

    // Totals survive sealing.
    Count ref_total = 0;
    for (const TableEntry& e : ref) ref_total += e.cnt;
    EXPECT_EQ(t.total(), ref_total);

    // Every group (probed at members, boundaries and misses) matches the
    // reference scan exactly.
    for (VertexId v : {VertexId{0}, VertexId{3}, domain / 2, domain - 1,
                       domain, domain + 17}) {
      const auto got = t.group(slot, v);
      const auto want = reference_group(ref, slot, v);
      EXPECT_TRUE(same_entries(got, want)) << "v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AritiesOrdersDomains, BucketSealProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0, 1, 2),
                       ::testing::Bool()));

TEST(BucketSeal, IndexedAndSearchGroupsAgree) {
  // The same sealed content probed through the bucket index and through
  // the binary-search fallback must agree: seal one copy with the domain
  // (index built) and one without after planting an out-of-domain key
  // (which forces the comparison path).
  Rng rng(7);
  std::vector<TableEntry> raw =
      random_entries(rng, 2000, 150, 2, /*tracked_slots=*/false);
  ProjTable indexed = table_of(2, raw);
  indexed.seal(SortOrder::kByV0, 150);
  ASSERT_TRUE(indexed.has_bucket_index());

  TableEntry far{};
  far.key.v[0] = 3'000'000'000u;  // domain detection declines this
  far.key.v[1] = 1;
  far.cnt = 1;
  std::vector<TableEntry> raw2 = raw;
  raw2.push_back(far);
  ProjTable searched = table_of(2, raw2);
  searched.seal(SortOrder::kByV0);
  ASSERT_FALSE(searched.has_bucket_index());

  for (VertexId v = 0; v < 150; ++v) {
    EXPECT_TRUE(same_entries(indexed.group(0, v), searched.group(0, v)))
        << "v=" << v;
  }
}

TEST(BucketSeal, RepeatedSealKeepsEntriesAndIndex) {
  // Sealing a table in the order it holds must not re-sort, must keep
  // the index, and must not change bytes; a round trip through the
  // other order must come back to the same entries.
  Rng rng(11);
  const std::vector<TableEntry> raw =
      random_entries(rng, 3000, 97, 2, /*tracked_slots=*/false);
  ProjTable t = table_of(2, raw);
  t.seal(SortOrder::kByV0, 97);
  ASSERT_TRUE(t.has_bucket_index());
  const std::vector<TableEntry> before(t.entries().begin(),
                                       t.entries().end());
  t.seal(SortOrder::kByV0);
  EXPECT_EQ(t.order(), SortOrder::kByV0);
  EXPECT_TRUE(t.has_bucket_index());
  expect_entry_identical(t, before);
  t.seal(SortOrder::kByV1, 97);
  EXPECT_EQ(t.order(), SortOrder::kByV1);
  t.seal(SortOrder::kByV0, 97);
  EXPECT_EQ(t.order(), SortOrder::kByV0);
  EXPECT_TRUE(t.has_bucket_index());
  expect_entry_identical(t, before);
}

TEST(BucketSeal, AutoDomainDetectionBuildsIndex) {
  Rng rng(13);
  const std::vector<TableEntry> raw =
      random_entries(rng, 5000, 64, 2, /*tracked_slots=*/false);
  ProjTable t = table_of(2, raw);
  t.seal(SortOrder::kByV1);  // no domain passed
  EXPECT_TRUE(t.has_bucket_index());
  expect_entry_identical(t, reference_sorted(raw, SortOrder::kByV1));
}

TEST(BucketSeal, EmptyAndSingleton) {
  ProjTable empty(2);
  empty.seal(SortOrder::kByV0, 100);
  EXPECT_TRUE(empty.group(0, 5).empty());

  TableEntry e{};
  e.key.v[0] = 42;
  e.key.v[1] = 7;
  e.cnt = 3;
  ProjTable one = ProjTable::from_flat(2, {e});
  one.seal(SortOrder::kByV0, 100);
  ASSERT_EQ(one.group(0, 42).size(), 1u);
  EXPECT_TRUE(one.group(0, 41).empty());
  EXPECT_TRUE(one.group(0, 99).empty());
  EXPECT_TRUE(one.group(0, 1000).empty());
}

}  // namespace
}  // namespace ccbt
