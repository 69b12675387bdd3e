// Regression tests for the sinks' packed 16-byte rows against a std::map
// reference: FlatRows::sum_duplicates sums packable keys exactly, the
// rows go wide on the first unpackable key and keep their sums, run sums
// wrap past 2^64 as every count does, a summed sink arrives sealed kByV0,
// and keys round-trip through KeyLayout's pack/unpack, whose fields
// shrink and whose slots drop at the vertex counts where the field width
// grows past 14, 18 and 28 bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

/// Two 28-bit slots: the layout of a graph of 2^28 - 1 vertices, where a
/// tracked slot does not pack.
const KeyLayout kTwoSlots = KeyLayout::for_vertices((1u << 28) - 1);

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

/// Key -> summed count, the reference the sinks are checked against.
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
  const KeyLayout lay = kTwoSlots;
  for (const TableKey k : {key2(0, 0, 0), key2(1, 2, 0b11),
                           key2(static_cast<VertexId>(lay.none() - 1), 7, 255),
                           key2(kNoVertex, kNoVertex, 0),
                           key2(5, kNoVertex, 0b101)}) {
    ASSERT_TRUE(lay.packable(k));
    EXPECT_EQ(lay.unpack(lay.pack(k)), k);
  }
}

TEST(PackedKey, RejectsWideKeys) {
  const KeyLayout lay = kTwoSlots;
  EXPECT_FALSE(lay.packable(key2(1, 2, 0x100)));  // 9-color sig
  EXPECT_FALSE(lay.packable(key2(static_cast<VertexId>(lay.none()), 2, 1)));
  TableKey tracked = key2(1, 2, 1);
  tracked.v[2] = 3;  // a slot past the layout's two
  EXPECT_FALSE(lay.packable(tracked));
  // A graph of 1000 vertices: four 10-bit slots hold the tracked key, but
  // not an id of 10 bits' all-ones pattern, nor a 9-color signature.
  const KeyLayout small = KeyLayout::for_vertices(1000);
  EXPECT_TRUE(small.packable(tracked));
  EXPECT_EQ(small.unpack(small.pack(tracked)), tracked);
  EXPECT_FALSE(small.packable(key2(1023, 2, 1)));
  tracked.sig = 0x100;
  EXPECT_FALSE(small.packable(tracked));
}

TEST(PackedKey, PackingIsInjective) {
  // Distinct packable keys map to distinct words (spot check over a grid).
  for (const KeyLayout lay : {kTwoSlots, KeyLayout::for_vertices(20)}) {
    std::vector<std::uint64_t> seen;
    for (VertexId u = 0; u < 20; ++u) {
      for (VertexId v = 0; v < 20; ++v) {
        for (Signature s = 0; s < 8; ++s) {
          seen.push_back(lay.pack(key2(u, v, s)));
          TableKey k = key2(u, v, s);
          k.v[lay.slots() - 1] = (u + v) % 7;
          if (lay.slots() > 2) seen.push_back(lay.pack(k));
        }
      }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  }
}

/// Lexicographic (v0, v1, v2, v3, sig) with kNoVertex last: the kByV0
/// order of ProjTable.
bool key_less(const TableKey& a, const TableKey& b) {
  for (int s = 0; s < 4; ++s) {
    if (a.v[s] != b.v[s]) return a.v[s] < b.v[s];
  }
  return a.sig < b.sig;
}

TEST(KeyLayout, FieldWidthAndSlotsAtTheLimits) {
  struct Limit {
    std::uint64_t n;
    int bits;
    int slots;
  };
  for (const Limit& l :
       {Limit{(1u << 14) - 1, 14, 4}, Limit{1u << 14, 15, 3},
        Limit{(1u << 18) - 1, 18, 3}, Limit{1u << 18, 19, 2},
        Limit{(1u << 28) - 1, 28, 2}, Limit{1u << 28, 29, 0}}) {
    SCOPED_TRACE("n " + std::to_string(l.n));
    const KeyLayout lay = KeyLayout::for_vertices(l.n);
    EXPECT_EQ(lay.bits(), l.bits);
    EXPECT_EQ(lay.slots(), l.slots);
    // Every vertex id of the graph stays below the kNoVertex pattern.
    EXPECT_GE(lay.none(), l.n);
    const auto last = static_cast<VertexId>(l.n - 1);
    // No key packs once the fields pass 28 bits.
    if (l.slots == 0) {
      EXPECT_FALSE(lay.packable(key2(0, 0, 0)));
      EXPECT_FALSE(lay.packable(TableKey{}));
      continue;
    }
    // The largest id and kNoVertex round-trip in every field.
    for (int s = 0; s < l.slots; ++s) {
      for (const VertexId v : {last, kNoVertex, VertexId{0}}) {
        TableKey k = key2(1, 2, 0x81);
        k.v[s] = v;
        ASSERT_TRUE(lay.packable(k)) << s << " " << v;
        EXPECT_EQ(lay.unpack(lay.pack(k)), k) << s << " " << v;
        EXPECT_EQ(lay.field(lay.pack(k), s),
                  v == kNoVertex ? lay.none() : v);
      }
      TableKey past = key2(1, 2, 3);
      past.v[s] = static_cast<VertexId>(lay.none());
      EXPECT_FALSE(lay.packable(past)) << s;
    }
    // A slot past the layout's does not pack.
    if (l.slots < 4) {
      TableKey k = key2(1, 2, 3);
      k.v[l.slots] = 0;
      EXPECT_FALSE(lay.packable(k));
    }
    // The packed word orders like the full key.
    Rng rng(l.n);
    std::vector<TableKey> keys;
    for (int i = 0; i < 400; ++i) {
      TableKey k;
      for (int s = 0; s < l.slots; ++s) {
        const std::uint64_t draw = rng.below(6);
        k.v[s] = draw == 0   ? kNoVertex
                 : draw == 1 ? last
                             : static_cast<VertexId>(rng.below(l.n));
      }
      k.sig = static_cast<Signature>(rng.below(256));
      ASSERT_TRUE(lay.packable(k));
      keys.push_back(k);
    }
    for (std::size_t i = 1; i < keys.size(); ++i) {
      const TableKey& a = keys[i - 1];
      const TableKey& b = keys[i];
      EXPECT_EQ(lay.pack(a) < lay.pack(b), key_less(a, b)) << i;
      EXPECT_EQ(lay.pack(a) == lay.pack(b), a == b) << i;
    }
  }
}

/// The summed rows of `sink`, checked to be in ascending full-key order
/// with one row per key.
std::vector<TableEntry> summed_rows(FlatRows& sink) {
  sink.sum_duplicates();
  std::vector<TableEntry> rows;
  sink.for_each_dense([&](const TableEntry& e) { rows.push_back(e); });
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_TRUE(entry_less(rows[i - 1], rows[i])) << "row " << i;
  }
  return rows;
}

TEST(PackedSink, MatchesReferenceOnRandomWorkload) {
  Rng rng(42);
  FlatRows sink(kTwoSlots);
  Reference ref;
  for (int i = 0; i < 20000; ++i) {
    const TableKey k = key2(static_cast<VertexId>(rng.below(300)),
                            static_cast<VertexId>(rng.below(300)),
                            static_cast<Signature>(rng.below(32)));
    const Count c = 1 + rng.below(5);
    sink.append(k, c);
    ref.add(k, c);
  }
  ref.expect_matches(summed_rows(sink));
  EXPECT_TRUE(sink.packed());  // every key packable: never went wide
  EXPECT_EQ(sink.size(), ref.size());
}

TEST(PackedSink, AddFoldsRepeatsOfTheLastKeyOnly) {
  for (const bool wide : {false, true}) {
    // A graph of 100 vertices packs the tracked slot.
    FlatRows sink(KeyLayout::for_vertices(100));
    TableKey a = key2(1, 2, 3);
    a.v[2] = 4;
    if (wide) a.sig = 0x100;  // unpackable: the rows are wide from the start
    const TableKey b = key2(5, 6, 7);
    sink.add(a, 1);
    sink.add(a, 2);
    sink.add(a, 3);
    EXPECT_EQ(sink.size(), 1u);
    sink.add(b, 4);
    sink.add(a, 5);  // not the last key: a row of its own
    EXPECT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.packed(), !wide);
    sink.sum_duplicates();
    ASSERT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.key_at(0), a);
    EXPECT_EQ(sink.count_at(0), 11u);
    EXPECT_EQ(sink.key_at(1), b);
    EXPECT_EQ(sink.count_at(1), 4u);
  }
}

TEST(PackedSink, SumsEveryKeyWidthAndSize) {
  // Keys that vary in one field only, or in all, at sizes on both sides
  // of the small-input cutoff: the radix passes cover exactly the bits
  // that vary, wherever they sit in the packed key.
  // Both the two-slot layout and a four-slot one, whose tracked fields
  // sit between v1 and the signature.
  Rng rng(5);
  for (const KeyLayout lay :
       {kTwoSlots, KeyLayout::for_vertices((1u << 14) - 1)}) {
    const auto big = static_cast<VertexId>(lay.none() - 1);
    for (const std::size_t n : {std::size_t{3}, std::size_t{63},
                                std::size_t{64}, std::size_t{5000}}) {
      // Fields 0..3 vary one key slot, 4 the signature, 5 all of them.
      for (int field = 0; field < 6; ++field) {
        if (field < 4 && field >= lay.slots()) continue;
        FlatRows sink(lay);
        Reference ref;
        for (std::size_t i = 0; i < n; ++i) {
          TableKey k = key2(big, 7, 3);
          for (int s = 0; s < lay.slots(); ++s) {
            if (field == s || field == 5) {
              k.v[s] = static_cast<VertexId>(rng.below(big));
            }
          }
          if (field >= 4) k.sig = static_cast<Signature>(rng.below(256));
          const Count c = rng.below(1000);
          sink.append(k, c);
          ref.add(k, c);
        }
        SCOPED_TRACE("slots " + std::to_string(lay.slots()) + " n " +
                     std::to_string(n) + " field " + std::to_string(field));
        ref.expect_matches(summed_rows(sink));
        EXPECT_TRUE(sink.packed());
      }
    }
  }
}

TEST(PackedSink, GoesWideOnFirstUnpackableKeyAndKeepsSums) {
  Rng rng(7);
  FlatRows sink(kTwoSlots);
  Reference ref;
  auto add_both = [&](const TableKey& k, Count c) {
    sink.append(k, c);
    ref.add(k, c);
  };
  for (int i = 0; i < 5000; ++i) {
    add_both(key2(static_cast<VertexId>(rng.below(100)),
                  static_cast<VertexId>(rng.below(100)),
                  static_cast<Signature>(rng.below(16))),
             1);
  }
  sink.sum_duplicates();  // a summed packed sink keeps taking rows
  EXPECT_TRUE(sink.packed());
  // A tracked-slot key forces the wide rows mid-stream.
  TableKey tracked = key2(3, 4, 1);
  tracked.v[2] = 9;
  add_both(tracked, 2);
  EXPECT_FALSE(sink.packed());
  // Summing continues across the switch.
  for (int i = 0; i < 5000; ++i) {
    add_both(key2(static_cast<VertexId>(rng.below(100)),
                  static_cast<VertexId>(rng.below(100)),
                  static_cast<Signature>(rng.below(16))),
             3);
  }
  ref.expect_matches(summed_rows(sink));
  EXPECT_FALSE(sink.packed());
  EXPECT_EQ(sink.size(), ref.size());
}

TEST(PackedSink, RunSumsWrapPast2To64InBothRepresentations) {
  for (const bool wide : {false, true}) {
    FlatRows sink(kTwoSlots);
    Reference ref;
    auto add_both = [&](const TableKey& k, Count c) {
      sink.append(k, c);
      ref.add(k, c);
    };
    if (wide) {
      TableKey tracked = key2(1, 1, 1);
      tracked.v[3] = 2;
      add_both(tracked, 1);
    }
    for (int i = 0; i < 100; ++i) {
      add_both(key2(5, 6, 7), 0xFFFFFFFFFFFFFFF0ull);
      add_both(key2(static_cast<VertexId>(i % 9), 6, 7),
               0x8000000000000001ull);
    }
    const std::vector<TableEntry> rows = summed_rows(sink);
    EXPECT_EQ(sink.packed(), !wide);
    ref.expect_matches(rows);
    Count want = 0;
    for (int i = 0; i < 100; ++i) want += 0xFFFFFFFFFFFFFFF0ull;
    const auto it = std::find_if(rows.begin(), rows.end(), [](const auto& e) {
      return e.key == key2(5, 6, 7);
    });
    ASSERT_NE(it, rows.end());
    EXPECT_EQ(it->cnt, want + 11 * 0x8000000000000001ull);
  }
}

TEST(PackedSink, AdoptsIntoReferenceProjTable) {
  // A packed sink and a sink forced wide by one extra key become tables
  // whose groups hold the reference's rows in the kByV0 key order.
  Rng rng(99);
  FlatRows packed(kTwoSlots);
  FlatRows wide(kTwoSlots);
  Reference ref;
  for (int i = 0; i < 4000; ++i) {
    const TableKey k = key2(static_cast<VertexId>(rng.below(64)),
                            static_cast<VertexId>(rng.below(64)),
                            static_cast<Signature>(rng.below(8)));
    packed.append(k, 1);
    wide.append(k, 1);
    ref.add(k, 1);
  }
  TableKey tracked = key2(63, 64, 1);  // past every drawn v1
  tracked.v[2] = 9;
  wide.append(tracked, 0);
  packed.sum_duplicates();
  wide.sum_duplicates();
  EXPECT_TRUE(packed.packed());
  EXPECT_FALSE(wide.packed());
  const ProjTable tp = ProjTable::from_sink(2, std::move(packed), 64);
  const ProjTable tw = ProjTable::from_sink(2, std::move(wide), 64);
  ref.expect_matches(
      std::vector<TableEntry>(tp.entries().begin(), tp.entries().end()));
  ASSERT_EQ(tw.size(), tp.size() + 1);
  EXPECT_EQ(tp.total(), 4000u);
  for (VertexId u = 0; u < 64; ++u) {
    const auto gp = tp.group(0, u);
    EXPECT_TRUE(std::is_sorted(gp.begin(), gp.end(), entry_less));
    const auto gw = tw.group(0, u);
    // The wide sink's extra key sorts last in group 63.
    ASSERT_EQ(gw.size(), gp.size() + (u == 63 ? 1 : 0)) << "bucket " << u;
    for (std::size_t i = 0; i < gp.size(); ++i) {
      EXPECT_EQ(gp[i].key, gw[i].key);
      EXPECT_EQ(gp[i].cnt, gw[i].cnt);
    }
  }
}

TEST(PackedSink, SummedSinkArrivesSealedByV0) {
  // A summed sink is in full-key order, so its table arrives sealed kByV0
  // with its bucket index: its rows equal a std::sort of the sink's rows
  // and every group the range a scan finds — packed in two slots, packed
  // with tracked slots, and wide. kNoVertex anchors (kind 0) fall outside
  // every domain, so that table probes by binary search.
  for (const int kind : {0, 1, 2}) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    const VertexId n = 70;
    Rng rng(123 + kind);
    FlatRows sink(kind == 0 ? kTwoSlots : KeyLayout::for_vertices(n));
    for (int i = 0; i < 3000; ++i) {
      const Signature sig_range = kind == 2 ? 512 : 64;
      TableKey k = key2(static_cast<VertexId>(rng.below(n)),
                        static_cast<VertexId>(rng.below(n)),
                        static_cast<Signature>(rng.below(sig_range)));
      if (kind != 0 && rng.below(2) == 0) {
        k.v[2] = static_cast<VertexId>(rng.below(n));
      }
      if (kind == 0 && rng.below(4) == 0) k.v[0] = kNoVertex;
      sink.add(k, 1 + rng.below(3));
    }
    sink.sum_duplicates();
    EXPECT_EQ(sink.packed(), kind != 2);
    std::vector<TableEntry> want;
    sink.for_each_dense([&](const TableEntry& e) { want.push_back(e); });
    for (std::size_t i = want.size(); i > 1; --i) {
      std::swap(want[i - 1], want[rng.below(i)]);
    }
    std::sort(want.begin(), want.end(), entry_less);
    const ProjTable stored = ProjTable::from_sink(3, std::move(sink), n);
    EXPECT_EQ(stored.order(), SortOrder::kByV0);
    EXPECT_EQ(stored.has_bucket_index(), kind != 0);
    ASSERT_EQ(stored.size(), want.size());
    for (std::size_t i = 0; i < stored.size(); ++i) {
      ASSERT_EQ(stored.entries()[i].key, want[i].key) << i;
      ASSERT_EQ(stored.entries()[i].cnt, want[i].cnt) << i;
    }
    for (VertexId u = 0; u <= n; ++u) {
      std::size_t lo = 0;
      while (lo < want.size() && want[lo].key.v[0] < u) ++lo;
      std::size_t hi = lo;
      while (hi < want.size() && want[hi].key.v[0] == u) ++hi;
      EXPECT_EQ(stored.group_span(0, u).second - stored.group_span(0, u).first,
                hi - lo)
          << u;
      if (hi > lo) EXPECT_EQ(stored.group_span(0, u).first, lo) << u;
    }
  }
}

}  // namespace
}  // namespace ccbt
