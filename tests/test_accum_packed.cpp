// Regression tests for the packed 16-byte AccumMap layout against a
// std::map reference: identical accumulation on packable keys,
// transparent migration to the wide layout on the first unpackable key,
// and byte-for-byte key round-tripping through pack/unpack.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "ccbt/table/accum_map.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

TableKey key2(VertexId u, VertexId v, Signature sig) {
  TableKey k;
  k.v[0] = u;
  k.v[1] = v;
  k.sig = sig;
  return k;
}

bool entry_less(const TableEntry& a, const TableEntry& b) {
  if (a.key.v[0] != b.key.v[0]) return a.key.v[0] < b.key.v[0];
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

/// Key -> summed count, the reference the maps are checked against.
class Reference {
 public:
  void add(const TableKey& k, Count c) { sums_[fields(k)] += c; }

  std::size_t size() const { return sums_.size(); }

  /// `rows` (one per key) hold exactly the reference's sums.
  void expect_matches(const std::vector<TableEntry>& rows) const {
    ASSERT_EQ(rows.size(), sums_.size());
    for (const TableEntry& e : rows) {
      const auto it = sums_.find(fields(e.key));
      ASSERT_NE(it, sums_.end());
      EXPECT_EQ(e.cnt, it->second);
    }
  }

 private:
  static std::array<std::uint64_t, 5> fields(const TableKey& k) {
    return {k.v[0], k.v[1], k.v[2], k.v[3], k.sig};
  }
  std::map<std::array<std::uint64_t, 5>, Count> sums_;
};

TEST(PackedKey, RoundTripsPackableKeys) {
  for (const TableKey k :
       {key2(0, 0, 0), key2(1, 2, 0b11), key2(kPacked28NoVertex - 1, 7, 255),
        key2(kNoVertex, kNoVertex, 0), key2(5, kNoVertex, 0b101)}) {
    ASSERT_TRUE(packable_key(k));
    EXPECT_EQ(unpack_key(pack_key(k)), k);
  }
}

TEST(PackedKey, RejectsWideKeys) {
  EXPECT_FALSE(packable_key(key2(1, 2, 0x100)));          // 9-color sig
  EXPECT_FALSE(packable_key(key2(kPacked28NoVertex, 2, 1)));  // 28-bit max
  TableKey tracked = key2(1, 2, 1);
  tracked.v[2] = 3;  // tracked slot in use
  EXPECT_FALSE(packable_key(tracked));
}

TEST(PackedKey, PackingIsInjective) {
  // Distinct packable keys map to distinct words (spot check over a grid).
  std::vector<std::uint64_t> seen;
  for (VertexId u = 0; u < 20; ++u) {
    for (VertexId v = 0; v < 20; ++v) {
      for (Signature s = 0; s < 8; ++s) seen.push_back(pack_key(key2(u, v, s)));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(PackedAccumMap, MatchesReferenceOnRandomWorkload) {
  Rng rng(42);
  AccumMap packed;
  Reference ref;
  EXPECT_TRUE(packed.packed());
  for (int i = 0; i < 20000; ++i) {
    const TableKey k = key2(static_cast<VertexId>(rng.below(300)),
                            static_cast<VertexId>(rng.below(300)),
                            static_cast<Signature>(rng.below(32)));
    const Count c = 1 + rng.below(5);
    packed.add(k, c);
    ref.add(k, c);
  }
  EXPECT_TRUE(packed.packed());  // every key packable: never migrated
  EXPECT_EQ(packed.size(), ref.size());
  ref.expect_matches(packed.take_entries());
}

TEST(PackedAccumMap, MigratesOnFirstWideKeyAndKeepsCounts) {
  Rng rng(7);
  AccumMap packed;
  Reference ref;
  auto add_both = [&](const TableKey& k, Count c) {
    packed.add(k, c);
    ref.add(k, c);
  };
  for (int i = 0; i < 5000; ++i) {
    add_both(key2(static_cast<VertexId>(rng.below(100)),
                  static_cast<VertexId>(rng.below(100)),
                  static_cast<Signature>(rng.below(16))),
             1);
  }
  EXPECT_TRUE(packed.packed());
  // A tracked-slot key forces the wide layout mid-stream.
  TableKey tracked = key2(3, 4, 1);
  tracked.v[2] = 9;
  add_both(tracked, 2);
  EXPECT_FALSE(packed.packed());
  // Accumulation continues across the migration.
  for (int i = 0; i < 5000; ++i) {
    add_both(key2(static_cast<VertexId>(rng.below(100)),
                  static_cast<VertexId>(rng.below(100)),
                  static_cast<Signature>(rng.below(16))),
             3);
  }
  EXPECT_EQ(packed.size(), ref.size());
  ref.expect_matches(packed.take_entries());
}

TEST(PackedAccumMap, ForEachVisitsPackedRows) {
  AccumMap packed;
  packed.add(key2(1, 2, 3), 5);
  packed.add(key2(1, 2, 3), 2);
  packed.add(key2(4, 5, 6), 1);
  Count total = 0;
  std::size_t n = 0;
  packed.for_each([&](const TableKey&, Count c) {
    total += c;
    ++n;
  });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(total, 8u);
  EXPECT_TRUE(packed.packed());
}

TEST(PackedAccumMap, SealsIntoReferenceProjTable) {
  // A packed map and a map forced wide by one extra key seal into tables
  // whose groups hold the reference's rows in the sealed key order.
  Rng rng(99);
  AccumMap packed;
  AccumMap wide;
  Reference ref;
  for (int i = 0; i < 4000; ++i) {
    const TableKey k = key2(static_cast<VertexId>(rng.below(64)),
                            static_cast<VertexId>(rng.below(64)),
                            static_cast<Signature>(rng.below(8)));
    packed.add(k, 1);
    wide.add(k, 1);
    ref.add(k, 1);
  }
  TableKey tracked = key2(63, 64, 1);  // past every drawn v1
  tracked.v[2] = 9;
  wide.add(tracked, 0);
  EXPECT_TRUE(packed.packed());
  EXPECT_FALSE(wide.packed());
  ProjTable tp = ProjTable::from_map(2, std::move(packed));
  ProjTable tw = ProjTable::from_map(2, std::move(wide));
  tp.seal(SortOrder::kByV0, 64);
  tw.seal(SortOrder::kByV0, 64);
  ref.expect_matches(
      std::vector<TableEntry>(tp.entries().begin(), tp.entries().end()));
  ASSERT_EQ(tw.size(), tp.size() + 1);
  EXPECT_EQ(tp.total(), 4000u);
  for (VertexId u = 0; u < 64; ++u) {
    const auto gp = tp.group(0, u);
    EXPECT_TRUE(std::is_sorted(gp.begin(), gp.end(), entry_less));
    const auto gw = tw.group(0, u);
    // The wide map's extra key sorts last in group 63.
    ASSERT_EQ(gw.size(), gp.size() + (u == 63 ? 1 : 0)) << "bucket " << u;
    for (std::size_t i = 0; i < gp.size(); ++i) {
      EXPECT_EQ(gp[i].key, gw[i].key);
      EXPECT_EQ(gp[i].cnt, gw[i].cnt);
    }
  }
}

}  // namespace
}  // namespace ccbt
