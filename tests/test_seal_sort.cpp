// The narrow seal's LSD radix sort over the slot-permuted packed key must
// produce exactly the row sequence std::stable_sort gives under the dense
// seal's (slot field, packed key) order — stability included — and the
// run-merge after it the exact u64 run sums, escalation decisions and
// scan stats, across every batch width, payload width, table size on
// both sides of the 4096-row radix cutoff, small and large vertex
// domains, and adversarial key distributions. The checkpoint restore
// path additionally relies on a sorted input surviving untouched.

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
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/table_key.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

template <int B>
using RowSpec = std::pair<TableKey, typename LaneOps<B>::Vec>;

/// Append `rows` round-robin across `parts` sinks and absorb them into
/// one. Duplicate keys landing in different parts survive the combining
/// cache as distinct rows — exactly how per-thread sinks produce the
/// duplicate runs whose relative order the stability claim is about.
template <int B>
FlatRowsT<B> build_sink(const std::vector<RowSpec<B>>& rows, int parts) {
  std::vector<FlatRowsT<B>> sinks(parts);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    sinks[i % parts].append(rows[i].first, rows[i].second);
  }
  FlatRowsT<B> out = std::move(sinks[0]);
  for (int p = 1; p < parts; ++p) out.absorb(std::move(sinks[p]));
  return out;
}

template <int B, typename W>
void expect_same_rows(const std::vector<PackedFlatRowT<B, W>>& a,
                      const std::vector<PackedFlatRowT<B, W>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].k, b[i].k) << "row " << i;
    ASSERT_EQ(a[i].c, b[i].c) << "row " << i;
  }
}

/// Whole-sink equality in whatever mode both ended up in.
template <int B>
void expect_same_sink(FlatRowsT<B>& a, FlatRowsT<B>& b) {
  ASSERT_EQ(a.mode(), b.mode());
  switch (a.mode()) {
    case FlatRowsT<B>::Mode::kU16:
      expect_same_rows<B>(a.rows_u16(), b.rows_u16());
      return;
    case FlatRowsT<B>::Mode::kU32:
      expect_same_rows<B>(a.rows_u32(), b.rows_u32());
      return;
    case FlatRowsT<B>::Mode::kWide: break;
  }
  const auto wa = a.take_wide();
  const auto wb = b.take_wide();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    ASSERT_EQ(wa[i].key, wb[i].key) << "row " << i;
    ASSERT_EQ(wa[i].cnt, wb[i].cnt) << "row " << i;
  }
}

/// The reference order: std::stable_sort by the slot's vertex field,
/// then the raw packed key (the dense seal's comparator).
template <int B, typename W>
void stable_sort_by_slot(std::vector<PackedFlatRowT<B, W>>& rows, int slot) {
  std::stable_sort(rows.begin(), rows.end(),
                   [slot](const auto& a, const auto& b) {
                     if (slot == 1) {
                       const auto av = (a.k >> 8) & kPacked28NoVertex;
                       const auto bv = (b.k >> 8) & kPacked28NoVertex;
                       if (av != bv) return av < bv;
                     }
                     return a.k < b.k;
                   });
}

/// One deduped row as exact u64 lane sums.
template <int B>
using MergedRow = std::pair<std::uint64_t, std::array<Count, B>>;

/// Equal-key run sums of sorted narrow rows — the reference for
/// merge_duplicates.
template <int B, typename W>
std::vector<MergedRow<B>> run_sums(
    const std::vector<PackedFlatRowT<B, W>>& rows) {
  std::vector<MergedRow<B>> out;
  for (const auto& r : rows) {
    if (out.empty() || out.back().first != r.k) out.push_back({r.k, {}});
    for (int l = 0; l < B; ++l) out.back().second[l] += r.c[l];
  }
  return out;
}

/// The sink's rows, in storage order, as (packed key, u64 lanes).
template <int B>
std::vector<MergedRow<B>> merged_of(const FlatRowsT<B>& f) {
  std::vector<MergedRow<B>> out;
  f.for_each_dense([&](const TableEntryT<B>& e) {
    std::array<Count, B> c{};
    for (int l = 0; l < B; ++l) c[l] = LaneOps<B>::lane(e.cnt, l);
    out.push_back({pack_key(e.key), c});
  });
  return out;
}

/// The core property: sort_by_slot refuses exactly when a slot value
/// falls outside [0, domain) or the rows went wide (rows untouched);
/// otherwise its row sequence is the stable-sort reference over the same
/// rows, and merge_duplicates leaves the reference's run sums with
/// matching scan stats.
template <int B>
void expect_sort_parity(const std::vector<RowSpec<B>>& rows, int slot,
                        VertexId domain, int parts = 4) {
  FlatRowsT<B> f = build_sink<B>(rows, parts);
  FlatRowsT<B> before = f;
  bool want_ok = f.narrow();
  for (const auto& r : rows) {
    want_ok = want_ok && r.first.v[slot] < domain;
  }
  const bool ok = f.sort_by_slot(slot, domain);
  ASSERT_EQ(ok, want_ok);
  if (!ok) {
    expect_same_sink(f, before);
    return;
  }
  std::vector<MergedRow<B>> want;
  if (f.mode() == FlatRowsT<B>::Mode::kU16) {
    auto ref = before.rows_u16();
    stable_sort_by_slot<B>(ref, slot);
    expect_same_rows<B>(f.rows_u16(), ref);
    want = run_sums<B>(ref);
  } else {
    ASSERT_EQ(f.mode(), FlatRowsT<B>::Mode::kU32);
    auto ref = before.rows_u32();
    stable_sort_by_slot<B>(ref, slot);
    expect_same_rows<B>(f.rows_u32(), ref);
    want = run_sums<B>(ref);
  }
  const FlatStats st = f.merge_duplicates();
  std::uint64_t lanes = 0;
  Count mx = 0;
  for (const auto& [k, c] : want) {
    for (const Count x : c) {
      lanes += x != 0;
      mx = std::max(mx, x);
    }
  }
  EXPECT_EQ(st.rows, want.size());
  EXPECT_EQ(st.lanes_occupied, lanes);
  EXPECT_EQ(st.max_count, mx);
  EXPECT_EQ(merged_of(f), want);
}

template <int B>
RowSpec<B> make_row(Rng& rng, VertexId domain, Count max_count) {
  TableKey k;
  k.v[0] = static_cast<VertexId>(rng.below(domain));
  k.v[1] = static_cast<VertexId>(rng.below(domain));
  k.sig = static_cast<Signature>(rng.below(256));
  auto c = LaneOps<B>::zero();
  LaneOps<B>::set_lane(c, static_cast<int>(rng.below(B)),
                       1 + rng.below(max_count));
  return {k, c};
}

template <int B>
void run_distribution_suite(Count max_count) {
  // A small domain (few, crowded slot buckets) and a large one (mostly
  // empty buckets), each at sizes on both sides of the 4096-row cutoff.
  for (const VertexId domain : {VertexId{64}, VertexId{100'000}}) {
    for (const int slot : {0, 1}) {
      for (const int n : {1500, 6000}) {
        Rng rng(100 + slot + n);
        std::vector<RowSpec<B>> rows;
        for (int i = 0; i < n; ++i) {
          rows.push_back(make_row<B>(rng, domain, max_count));
        }
        expect_sort_parity<B>(rows, slot, domain);
      }
      // Duplicate-heavy: a 24-key universe over 6000 rows makes
      // ~250-row equal-key runs.
      {
        Rng rng(200 + slot);
        std::vector<RowSpec<B>> rows;
        for (int i = 0; i < 6000; ++i) {
          rows.push_back(make_row<B>(rng, 24, max_count));
        }
        expect_sort_parity<B>(rows, slot, domain);
      }
      // All-equal keys: one run spanning the whole input.
      {
        Rng rng(300);
        std::vector<RowSpec<B>> rows;
        for (int i = 0; i < 800; ++i) {
          RowSpec<B> r = make_row<B>(rng, domain, max_count);
          r.first.v[0] = 7;
          r.first.v[1] = 9;
          r.first.sig = 0x21;
          rows.push_back(r);
        }
        expect_sort_parity<B>(rows, slot, domain);
      }
      // Descending keys (worst case for the sorted-input detector, best
      // case for an unstable shortcut to get wrong).
      for (const int n : {2000, 5000}) {
        Rng rng(400);
        std::vector<RowSpec<B>> rows;
        for (int i = 0; i < n; ++i) {
          RowSpec<B> r = make_row<B>(rng, domain, max_count);
          r.first.v[0] = static_cast<VertexId>(domain - 1 - (i % domain));
          rows.push_back(r);
        }
        expect_sort_parity<B>(rows, slot, domain);
      }
      // Single bucket: every row shares the slot value, so order comes
      // entirely from the other key fields.
      {
        Rng rng(500);
        std::vector<RowSpec<B>> rows;
        for (int i = 0; i < 2000; ++i) {
          RowSpec<B> r = make_row<B>(rng, domain, max_count);
          r.first.v[slot] = 42;
          rows.push_back(r);
        }
        expect_sort_parity<B>(rows, slot, domain);
      }
    }
  }
}

TEST(SealSort, RadixMatchesStableSortU16B2) {
  run_distribution_suite<2>(900);
}
TEST(SealSort, RadixMatchesStableSortU16B4) {
  run_distribution_suite<4>(900);
}
TEST(SealSort, RadixMatchesStableSortU16B8) {
  run_distribution_suite<8>(900);
}

// Counts past the u16 boundary: the sinks escalate to u32 rows (40 bytes
// at B = 8 — the key-index gather path of the radix engine).
TEST(SealSort, RadixMatchesStableSortU32B4) {
  run_distribution_suite<4>(0x40000);
}
TEST(SealSort, RadixMatchesStableSortU32B8) {
  run_distribution_suite<8>(0x40000);
}

TEST(SealSort, WideEscapeRefuses) {
  // An unpackable key (slot 2 occupied) drives the sink wide; the seal
  // must then refuse the narrow sort and leave the rows alone.
  Rng rng(600);
  std::vector<RowSpec<8>> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back(make_row<8>(rng, 100, 50));
  }
  rows[250].first.v[2] = 3;
  expect_sort_parity<8>(rows, 1, 100);
}

TEST(SealSort, OutOfDomainSlotRefuses) {
  // A slot value at/above `domain` (kNoVertex included) must make the
  // seal return false with the rows untouched.
  Rng rng(650);
  std::vector<RowSpec<4>> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(make_row<4>(rng, 80, 50));
  }
  rows[100].first.v[1] = 80;  // == domain
  expect_sort_parity<4>(rows, 1, 80);
}

TEST(SealSort, RadixIsStable) {
  // Direct stability check with heavy cross-sink duplication: duplicate
  // keys with distinguishable counts must keep their append order — the
  // exact row sequence std::stable_sort produces under the (slot
  // bucket, raw packed key) order.
  for (const int slot : {0, 1}) {
    Rng rng(800 + slot);
    std::vector<RowSpec<8>> rows;
    for (int i = 0; i < 3000; ++i) {
      RowSpec<8> r = make_row<8>(rng, 16, 0xFFFF);  // heavy duplication
      r.first.sig = static_cast<Signature>(1u << rng.below(4));
      rows.push_back(r);
    }
    FlatRowsT<8> f = build_sink<8>(rows, 8);
    ASSERT_EQ(f.mode(), FlatRowsT<8>::Mode::kU16);
    auto ref = f.rows_u16();  // copy of the appended order
    stable_sort_by_slot<8>(ref, slot);
    ASSERT_TRUE(f.sort_by_slot(slot, 16));
    expect_same_rows<8>(f.rows_u16(), ref);
  }
}

TEST(SealSort, SortedInputSurvivesRadixUntouched) {
  // The checkpoint restore property: decoded shards arrive in sealed
  // order, and the radix engine's validation pass must detect that and
  // return without moving a row — re-sealing is bit-identical.
  Rng rng(700);
  std::vector<RowSpec<8>> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(make_row<8>(rng, 200, 900));
  }
  FlatRowsT<8> f = build_sink<8>(rows, 4);
  ASSERT_TRUE(f.sort_by_slot(1, 200));
  f.merge_duplicates();
  ASSERT_EQ(f.mode(), FlatRowsT<8>::Mode::kU16);
  FlatRowsT<8> again = f;
  ASSERT_TRUE(again.sort_by_slot(1, 200));
  expect_same_rows<8>(f.rows_u16(), again.rows_u16());
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
  opts.dist.max_replays = 16;
  opts.dist.checkpoint_interval = 2;
  const DistStats faulty = run_plan_distributed(g, plan.tree, batch, 4, opts);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(faulty.colorful_lane[l], clean.colorful_lane[l]) << l;
  }
  EXPECT_GT(faulty.faults.replays, 0u);
}

}  // namespace
}  // namespace ccbt
