// Lane-compressed count rows: the packed (occupancy mask + variable-width
// payload) table layout, the narrow accumulation rows, and the compressed
// wire format must reproduce the dense layout's results exactly — across
// B in {2, 4, 8}, forced u16 -> u32 -> u64 overflow escalation, and the
// all-lanes-dense worst case (which must *stay* dense).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/dist/comm.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/lane_simd.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

constexpr VertexId kDomain = 512;

/// Random flat rows: `live_lanes` lanes occupied per row on average,
/// counts uniform in [1, max_count]. Keys collide freely so the sealing
/// dedup runs too.
template <int B>
std::vector<TableEntryT<B>> random_rows(std::size_t n, int live_lanes,
                                        Count max_count,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TableEntryT<B>> rows(n);
  for (auto& e : rows) {
    e.key.v[0] = static_cast<VertexId>(rng.below(kDomain));
    e.key.v[1] = static_cast<VertexId>(rng.below(kDomain));
    e.key.sig = static_cast<Signature>(1u << rng.below(8));
    e.cnt = LaneOps<B>::zero();
    for (int j = 0; j < live_lanes; ++j) {
      const int l = static_cast<int>(rng.below(B));
      LaneOps<B>::set_lane(e.cnt, l, 1 + rng.below(max_count));
    }
    if (LaneOps<B>::is_zero(e.cnt)) {
      LaneOps<B>::set_lane(e.cnt, 0, 1);
    }
  }
  return rows;
}

/// Seal two copies of the same rows — one kStore (may re-pack), one
/// kStream (dense) — and require row-for-row equality through every
/// layout-independent accessor.
template <int B>
void expect_layout_parity(std::vector<TableEntryT<B>> rows,
                          SortOrder order) {
  auto copy = rows;
  ProjTableT<B> packed = ProjTableT<B>::from_flat(2, std::move(rows));
  ProjTableT<B> dense = ProjTableT<B>::from_flat(2, std::move(copy));
  packed.seal(order, kDomain, LaneSealHint::kStore);
  dense.seal(order, kDomain, LaneSealHint::kStream);
  ASSERT_FALSE(dense.lane_compressed());
  ASSERT_EQ(packed.size(), dense.size());

  // Whole-table scans agree.
  EXPECT_EQ(packed.total(), dense.total());
  EXPECT_EQ(packed.lane_totals(), dense.lane_totals());

  // Row-for-row equality (row_at expands the packed payload).
  TableEntryT<B> tmp;
  const auto de = dense.entries();
  for (std::size_t i = 0; i < dense.size(); ++i) {
    const TableEntryT<B>& e = packed.row_at(i, tmp);
    EXPECT_EQ(e.key, de[i].key) << "row " << i;
    EXPECT_EQ(e.cnt, de[i].cnt) << "row " << i;
  }

  // Group probes agree for every key in the domain (and out of it).
  const int slot = group_slot(order);
  std::vector<TableEntryT<B>> scratch;
  for (VertexId v = 0; v < kDomain + 3; ++v) {
    const auto pg = packed.group_expanded(slot, v, scratch);
    const auto dg = dense.group(slot, v);
    ASSERT_EQ(pg.size(), dg.size()) << "group " << v;
    for (std::size_t i = 0; i < pg.size(); ++i) {
      EXPECT_EQ(pg[i].key, dg[i].key);
      EXPECT_EQ(pg[i].cnt, dg[i].cnt);
    }
  }

  // Derived tables agree too (transpose reads through the packed layout).
  ProjTableT<B> pt = packed.transposed();
  ProjTableT<B> dt = dense.transposed();
  pt.seal(SortOrder::kByV0, kDomain, LaneSealHint::kStore);
  dt.seal(SortOrder::kByV0, kDomain, LaneSealHint::kStream);
  EXPECT_EQ(pt.lane_totals(), dt.lane_totals());
  EXPECT_EQ(pt.size(), dt.size());
}

template <int B>
void run_parity_suite() {
  // Sparse lanes, small counts: the chooser must pack (u16 payload).
  {
    auto rows = random_rows<B>(4000, 1, 1000, 11);
    ProjTableT<B> t = ProjTableT<B>::from_flat(2, std::move(rows));
    t.seal(SortOrder::kByV0, kDomain, LaneSealHint::kStore);
    EXPECT_TRUE(t.lane_compressed());
    EXPECT_EQ(t.layout().width, PayloadWidth::kU16);
  }
  expect_layout_parity<B>(random_rows<B>(4000, 1, 1000, 17),
                          SortOrder::kByV0);
  expect_layout_parity<B>(random_rows<B>(4000, 2, 60000, 19),
                          SortOrder::kByV1);
  expect_layout_parity<B>(random_rows<B>(2500, B, 3, 23),
                          SortOrder::kByV0V1);
}

TEST(LaneCompress, PackedTableMatchesDenseB2) { run_parity_suite<2>(); }
TEST(LaneCompress, PackedTableMatchesDenseB4) { run_parity_suite<4>(); }
TEST(LaneCompress, PackedTableMatchesDenseB8) { run_parity_suite<8>(); }

TEST(LaneCompress, WidthEscalatesU16ToU32ToU64) {
  // Counts just past each boundary force the next wider payload; the
  // packed rows must survive the round trip exactly.
  const Count boundary[] = {0xFFFFull, 0x10000ull, 0xFFFFFFFFull,
                            0x100000000ull};
  const PayloadWidth expect_width[] = {
      PayloadWidth::kU16, PayloadWidth::kU32, PayloadWidth::kU32,
      PayloadWidth::kU64};
  for (int c = 0; c < 4; ++c) {
    std::vector<TableEntryT<4>> rows(64);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].key.v[0] = static_cast<VertexId>(i % 16);
      rows[i].key.v[1] = static_cast<VertexId>(i);
      rows[i].key.sig = 1;
      LaneOps<4>::set_lane(rows[i].cnt, static_cast<int>(i % 4),
                           i == 0 ? boundary[c] : 7);
    }
    auto copy = rows;
    ProjTableT<4> t = ProjTableT<4>::from_flat(2, std::move(rows));
    t.seal(SortOrder::kByV0, 16, LaneSealHint::kStore);
    ASSERT_TRUE(t.lane_compressed()) << "case " << c;
    EXPECT_EQ(t.layout().width, expect_width[c]) << "case " << c;

    ProjTableT<4> d = ProjTableT<4>::from_flat(2, std::move(copy));
    d.seal(SortOrder::kByV0, 16, LaneSealHint::kStream);
    EXPECT_EQ(t.lane_totals(), d.lane_totals()) << "case " << c;
    TableEntryT<4> tmp;
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(t.row_at(i, tmp).cnt, d.entries()[i].cnt);
    }
  }
}

TEST(LaneCompress, AllLanesDenseWorstCaseStaysDense) {
  // Every lane occupied with u64-scale counts: the packed form would be
  // larger, so the chooser must keep the SIMD-friendly dense layout.
  std::vector<TableEntryT<8>> rows(512);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].key.v[0] = static_cast<VertexId>(i);
    rows[i].key.v[1] = static_cast<VertexId>(i + 1);
    rows[i].key.sig = 3;
    for (int l = 0; l < 8; ++l) {
      LaneOps<8>::set_lane(rows[i].cnt, l, 0x100000000ull + i + l);
    }
  }
  ProjTableT<8> t = ProjTableT<8>::from_flat(2, std::move(rows));
  t.seal(SortOrder::kByV0, 600, LaneSealHint::kStore);
  EXPECT_FALSE(t.lane_compressed());
  EXPECT_EQ(t.layout().width, PayloadWidth::kU64);
  EXPECT_DOUBLE_EQ(t.layout().density(), 1.0);
  EXPECT_FALSE(lane_layout_profitable(t.layout()));
}

TEST(LaneCompress, StreamHintNeverPacks) {
  auto rows = random_rows<8>(2000, 1, 100, 29);
  ProjTableT<8> t = ProjTableT<8>::from_flat(2, std::move(rows));
  t.seal(SortOrder::kByV1, kDomain, LaneSealHint::kStream);
  EXPECT_FALSE(t.lane_compressed());
  EXPECT_GT(t.layout().rows, 0u);  // density still observed (telemetry)
  EXPECT_LT(t.layout().density(), 0.5);
}

TEST(LaneCompress, StreamResealUnpacksStoredTable) {
  // kStream promises the dense span fast path to the consumer that
  // follows the seal — even when re-sealing an already packed table
  // (kByV0 -> kByV0V1 is an order relabel, no re-sort).
  auto rows = random_rows<8>(3000, 1, 100, 31);
  ProjTableT<8> t = ProjTableT<8>::from_flat(2, std::move(rows));
  t.seal(SortOrder::kByV0, kDomain, LaneSealHint::kStore);
  ASSERT_TRUE(t.lane_compressed());
  const auto before = t.lane_totals();
  t.seal(SortOrder::kByV0V1, kDomain, LaneSealHint::kStream);
  EXPECT_FALSE(t.lane_compressed());
  EXPECT_EQ(t.lane_totals(), before);
  EXPECT_NO_THROW((void)t.entries());
}

// ---------------------------------------------------------------- wire

TEST(LaneCompressWire, RoundTripIsExactAndOrdered) {
  VirtualCommT<8> comm(3);
  Rng rng(41);
  std::vector<TableEntryT<8>> sent;
  for (int i = 0; i < 200; ++i) {
    TableEntryT<8> e;
    e.key.v[0] = static_cast<VertexId>(rng.below(1000));
    e.key.v[1] = static_cast<VertexId>(rng.below(1000));
    if (i % 5 == 0) e.key.v[2] = static_cast<VertexId>(rng.below(1000));
    e.key.sig = static_cast<Signature>(rng.below(1u << 16));
    // Mix of widths, including the exact u16/u32 boundaries and zero
    // lanes.
    const Count magnitudes[] = {1, 0xFFFFull, 0x10000ull, 0xFFFFFFFFull,
                                0x100000000ull};
    for (int l = 0; l < 8; ++l) {
      if (rng.below(8) < 2) {
        LaneOps<8>::set_lane(e.cnt, l, magnitudes[rng.below(5)]);
      }
    }
    sent.push_back(e);
    comm.send(0, static_cast<std::uint32_t>(i % 3), e);
  }
  comm.exchange();
  // Delivery preserves sender order per destination and decodes exactly.
  std::array<std::size_t, 3> cursor{};
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto to = static_cast<std::uint32_t>(i % 3);
    const auto& in = comm.inbox(to);
    ASSERT_GT(in.size(), cursor[to]);
    EXPECT_EQ(in[cursor[to]].key, sent[i].key);
    EXPECT_EQ(in[cursor[to]].cnt, sent[i].cnt);
    ++cursor[to];
  }
  EXPECT_EQ(comm.stats().entries_sent, 200u);
  // The compressed encoding must beat the dense 88-byte row on these
  // sparse rows.
  EXPECT_GT(comm.stats().off_rank_entries, 0u);
  EXPECT_LT(comm.stats().off_rank_bytes(),
            comm.stats().off_rank_entries * comm.stats().entry_bytes);
  EXPECT_GT(comm.stats().wire_lane_density(), 0.0);
}

TEST(LaneCompressWire, ScalarWireFormatUnchanged) {
  VirtualComm comm(2);
  TableEntry e;
  e.key.v[0] = 4;
  e.key.v[1] = 9;
  e.key.sig = 0b101;
  e.cnt = 7;
  comm.send(0, 1, e);
  comm.exchange();
  EXPECT_EQ(comm.stats().off_rank_bytes(),
            sizeof(TableKey) + sizeof(Count));
  ASSERT_EQ(comm.inbox(1).size(), 1u);
  EXPECT_EQ(comm.inbox(1)[0].cnt, 7u);
}

// ------------------------------------------------------------- accum

TEST(LaneCompressAccum, NarrowMatchesWideIncludingOverflowEscape) {
  AccumMapT<4> narrow(16, /*compact=*/true);
  AccumMapT<4> wide(16, /*compact=*/false);
  ASSERT_TRUE(narrow.narrow());
  Rng rng(53);
  for (int i = 0; i < 3000; ++i) {
    TableKey k;
    k.v[0] = static_cast<VertexId>(rng.below(64));
    k.v[1] = static_cast<VertexId>(rng.below(64));
    k.sig = static_cast<Signature>(rng.below(256));
    auto c = LaneOps<4>::zero();
    // Mostly small adds; occasionally a near-u32 add that forces the
    // accumulated lane past 2^32 - 1 (the escape to wide u64 rows).
    const Count big = 0xFFFFFF00ull;
    LaneOps<4>::set_lane(c, static_cast<int>(rng.below(4)),
                         rng.below(1000) == 0 ? big : 1 + rng.below(9));
    narrow.add(k, c);
    wide.add(k, c);
  }
  ASSERT_EQ(narrow.size(), wide.size());
  // take_entries yields wide rows either way; compare via a sealed table.
  ProjTableT<4> tn = ProjTableT<4>::from_map(2, std::move(narrow));
  ProjTableT<4> tw = ProjTableT<4>::from_map(2, std::move(wide));
  tn.seal(SortOrder::kByV0, 64, LaneSealHint::kStream);
  tw.seal(SortOrder::kByV0, 64, LaneSealHint::kStream);
  ASSERT_EQ(tn.size(), tw.size());
  for (std::size_t i = 0; i < tn.size(); ++i) {
    EXPECT_EQ(tn.entries()[i].key, tw.entries()[i].key);
    EXPECT_EQ(tn.entries()[i].cnt, tw.entries()[i].cnt);
  }
}

TEST(LaneCompressAccum, NarrowEscapesOnFirstOverflow) {
  AccumMapT<2> map(16, /*compact=*/true);
  TableKey k;
  k.v[0] = 1;
  k.v[1] = 2;
  auto c = LaneOps<2>::zero();
  LaneOps<2>::set_lane(c, 0, 0xFFFFFFFFull);
  map.add(k, c);
  EXPECT_TRUE(map.narrow());  // exactly at the boundary still fits
  map.add(k, c);              // sum exceeds u32: must escape, not wrap
  EXPECT_FALSE(map.narrow());
  Count seen = 0;
  map.for_each([&](const TableKey&, const LaneOps<2>::Vec& v) {
    seen = LaneOps<2>::lane(v, 0);
  });
  EXPECT_EQ(seen, 0x1FFFFFFFEull);
}

// ------------------------------------------------------ masked appends

/// Key -> summed lane counts, independent of row order, duplicates, and
/// the width the sink happened to hold them in.
template <int B>
std::map<std::array<std::uint64_t, 5>, std::array<Count, B>> flat_totals(
    FlatRowsT<B>&& rows) {
  std::map<std::array<std::uint64_t, 5>, std::array<Count, B>> out;
  for (const auto& e : rows.take_wide()) {
    auto& acc = out[{e.key.v[0], e.key.v[1], e.key.v[2], e.key.v[3],
                     e.key.sig}];
    for (int l = 0; l < B; ++l) acc[l] += LaneOps<B>::lane(e.cnt, l);
  }
  return out;
}

/// The masked append (no materialized masked vector) must agree with the
/// plain append of the materialized masked vector — the already-proven
/// path — for every mode the magnitude drives the sink into.
template <int B>
void run_masked_append_parity(Count magnitude, std::uint64_t seed) {
  Rng rng(seed);
  FlatRowsT<B> masked_sink;
  FlatRowsT<B> plain_sink;
  for (int i = 0; i < 4000; ++i) {
    TableKey k;
    k.v[0] = static_cast<VertexId>(rng.below(48));
    k.v[1] = static_cast<VertexId>(rng.below(48));
    k.sig = static_cast<Signature>(rng.below(256));
    if (rng.below(50) == 0) k.v[2] = 7;  // unpackable: wide fallback
    auto src = LaneOps<B>::zero();
    Count src_hi = 0;
    for (int l = 0; l < B; ++l) {
      if (rng.below(3) == 0) {
        const Count c = 1 + rng.below(magnitude);
        LaneOps<B>::set_lane(src, l, c);
        src_hi |= c;
      }
    }
    const auto m = static_cast<LaneMask>(rng.below(1u << B));
    masked_sink.append_masked(k, src, m, src_hi);
    plain_sink.append(k, LaneOps<B>::masked(src, m));
  }
  EXPECT_EQ(flat_totals(std::move(masked_sink)),
            flat_totals(std::move(plain_sink)));
}

TEST(LaneCompressFlat, MaskedAppendMatchesPlainB2) {
  run_masked_append_parity<2>(1000, 61);          // stays u16
  run_masked_append_parity<2>(100000, 62);        // escalates to u32
  run_masked_append_parity<2>(0x200000000ull, 63);  // escalates to wide
}
TEST(LaneCompressFlat, MaskedAppendMatchesPlainB4) {
  run_masked_append_parity<4>(1000, 71);
  run_masked_append_parity<4>(100000, 72);
  run_masked_append_parity<4>(0x200000000ull, 73);
}
TEST(LaneCompressFlat, MaskedAppendMatchesPlainB8) {
  run_masked_append_parity<8>(1000, 81);
  run_masked_append_parity<8>(100000, 82);
  run_masked_append_parity<8>(0x200000000ull, 83);
}

TEST(LaneCompressFlat, MaskedAppendEscalatesMidAccumulation) {
  // u16 -> u32 -> wide, forced mid-stream; earlier rows must survive each
  // conversion exactly, and a too-big count on a masked-OFF lane must NOT
  // escalate (the masked OR decides, not the raw source row).
  FlatRowsT<4> f;
  TableKey k;
  k.v[0] = 1;
  k.v[1] = 2;
  k.sig = 4;
  auto small = LaneOps<4>::zero();
  LaneOps<4>::set_lane(small, 0, 9);
  f.append_masked(k, small, 0b0001, 9);
  ASSERT_EQ(f.mode(), FlatRowsT<4>::Mode::kU16);

  auto big = LaneOps<4>::zero();
  LaneOps<4>::set_lane(big, 1, 0x12345ull);    // > u16
  LaneOps<4>::set_lane(big, 2, 0x1FFFFFFFFull);  // > u32, but masked off
  f.append_masked(k, big, 0b0010, 0x1FFFFFFFFull);
  EXPECT_EQ(f.mode(), FlatRowsT<4>::Mode::kU32);

  f.append_masked(k, big, 0b0100, 0x1FFFFFFFFull);
  EXPECT_EQ(f.mode(), FlatRowsT<4>::Mode::kWide);

  const auto totals = flat_totals(std::move(f));
  const std::array<std::uint64_t, 5> key{1, 2, kNoVertex, kNoVertex, 4};
  ASSERT_EQ(totals.count(key), 1u);
  const auto& c = totals.at(key);
  EXPECT_EQ(c[0], 9u);
  EXPECT_EQ(c[1], 0x12345ull);
  EXPECT_EQ(c[2], 0x1FFFFFFFFull);
  EXPECT_EQ(c[3], 0u);
}

TEST(LaneCompressFlat, MaskedU16StreamMatchesGenericAppend) {
  // The all-16-bit streaming append (packed key + u16 source row, no
  // width decision) against the generic masked append of the expanded
  // row — including after a mid-stream escalation flips it onto its
  // fallback path.
  Rng rng(91);
  FlatRowsT<8> stream_sink;
  FlatRowsT<8> generic_sink;
  auto emit_u16 = [&](bool escalated) {
    TableKey k;
    k.v[0] = static_cast<VertexId>(rng.below(40));
    k.v[1] = static_cast<VertexId>(rng.below(40));
    k.sig = static_cast<Signature>(rng.below(256));
    PackedFlatRowT<8, std::uint16_t> src;
    src.k = pack_key(k);
    auto expanded = LaneOps<8>::zero();
    for (int l = 0; l < 8; ++l) {
      src.c[l] = rng.below(3) == 0
                     ? static_cast<std::uint16_t>(1 + rng.below(0xFFFF))
                     : std::uint16_t{0};
      LaneOps<8>::set_lane(expanded, l, src.c[l]);
    }
    const auto m = static_cast<LaneMask>(rng.below(256));
    stream_sink.append_masked_u16(src.k, src, m);
    generic_sink.append_masked(k, expanded, m, std::uint64_t{0xFFFF});
    (void)escalated;
  };
  for (int i = 0; i < 3000; ++i) emit_u16(false);
  // Escalate both sinks out of u16 mode with one oversized generic
  // emission, then keep streaming: append_masked_u16 must take its
  // expand-and-fall-through branch and still agree.
  TableKey bigk;
  bigk.v[0] = 3;
  bigk.v[1] = 5;
  bigk.sig = 8;
  auto bigc = LaneOps<8>::zero();
  LaneOps<8>::set_lane(bigc, 0, 0x99999ull);
  stream_sink.append_masked(bigk, bigc, 0b1, 0x99999ull);
  generic_sink.append_masked(bigk, bigc, 0b1, 0x99999ull);
  ASSERT_NE(stream_sink.mode(), FlatRowsT<8>::Mode::kU16);
  for (int i = 0; i < 1000; ++i) emit_u16(true);
  EXPECT_EQ(flat_totals(std::move(stream_sink)),
            flat_totals(std::move(generic_sink)));
}

TEST(LaneCompressFlat, U16RunSumOverflowEscalatesAtBucketClose) {
  // Repeated same-key u16 appends whose sum outgrows u16 stay duplicate
  // rows (no wrap); closing the bucket must sum them exactly and escalate
  // the sealed rows to u32.
  FlatRowsT<2> f;
  TableKey k;
  k.v[0] = 6;
  k.v[1] = 9;
  k.sig = 2;
  PackedFlatRowT<2, std::uint16_t> src;
  src.k = pack_key(k);
  src.c = {0x7000, 0};
  const int reps = 40;  // 40 * 0x7000 = 0x118000 > u16
  for (int i = 0; i < reps; ++i) f.append_masked_u16(src.k, src, 0b01);
  EXPECT_EQ(f.mode(), FlatRowsT<2>::Mode::kU16);
  EXPECT_EQ(f.size(), static_cast<std::size_t>(reps));
  FlatRowsT<2> sealed;
  FlatStats st;
  f.drain_bucket_into(sealed, st);
  EXPECT_EQ(sealed.mode(), FlatRowsT<2>::Mode::kU32);
  EXPECT_EQ(sealed.size(), 1u);
  EXPECT_EQ(st.max_count, static_cast<Count>(reps) * 0x7000ull);
  const auto totals = flat_totals(std::move(sealed));
  const std::array<std::uint64_t, 5> key{6, 9, kNoVertex, kNoVertex, 2};
  ASSERT_EQ(totals.count(key), 1u);
  EXPECT_EQ(totals.at(key)[0], static_cast<Count>(reps) * 0x7000ull);
  EXPECT_EQ(totals.at(key)[1], 0u);
}

// ------------------------------------------------------------ lane simd

TEST(LaneSimd, Avx2KernelsMatchScalarOps) {
  if (!lane_simd_avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
#if CCBT_LANE_SIMD_X86
  // Direct kernel-vs-LaneOps comparison: wrapping products, boundary
  // masks, zero vectors — the dispatch front end must be bit-identical
  // whichever side it picks.
  Rng rng(101);
  for (int iter = 0; iter < 2000; ++iter) {
    std::array<Count, 8> a{};
    std::array<Count, 8> b{};
    for (int l = 0; l < 8; ++l) {
      const int shape = static_cast<int>(rng.below(4));
      a[l] = shape == 0 ? 0 : rng.below(~std::uint64_t{0});
      b[l] = shape == 1 ? 0 : rng.below(~std::uint64_t{0});
    }
    const auto m = static_cast<LaneMask>(rng.below(256));

    std::array<Count, 8> got{};
    detail_simd::mul_masked_avx2(a.data(), b.data(), got.data(), m, 2);
    EXPECT_EQ(got, LaneOps<8>::mul_masked(a, b, m));

    detail_simd::masked_avx2(a.data(), got.data(), m, 2);
    EXPECT_EQ(got, LaneOps<8>::masked(a, m));

    std::array<Count, 8> d = a;
    std::array<Count, 8> dref = a;
    detail_simd::add_avx2(d.data(), b.data(), 2);
    LaneOps<8>::add(dref, b);
    EXPECT_EQ(d, dref);

    EXPECT_EQ(detail_simd::is_zero_avx2(a.data(), 2),
              LaneOps<8>::is_zero(a));

    LaneMask ref = 0;
    for (int l = 0; l < 8; ++l) {
      ref |= static_cast<LaneMask>(a[l] != 0) << l;
    }
    EXPECT_EQ(detail_simd::nonzero_mask_avx2(a.data(), 2), ref);
  }
  // All-zero and all-ones edges.
  std::array<Count, 8> zero{};
  EXPECT_TRUE(detail_simd::is_zero_avx2(zero.data(), 2));
  EXPECT_EQ(detail_simd::nonzero_mask_avx2(zero.data(), 2), 0u);
#endif
}

// ------------------------------------------------------- packed merge

/// Shared fixture pieces for the merge parity tests: a B-lane context
/// whose colorings the pair-compatibility test consults.
template <int B>
struct MergeCx {
  CsrGraph g;
  std::vector<Coloring> lanes;
  ColoringBatch chi;
  DegreeOrder order;
  ExecOptions opts;
  ExecContext cx;

  explicit MergeCx(std::uint64_t seed, VertexId n = 64)
      : g(erdos_renyi(n, 4 * n, seed)),
        lanes(make_lanes(n, seed)),
        chi(std::span<const Coloring>(lanes)),
        order(g),
        cx{g, chi, order, BlockPartition(n, 2), nullptr, opts} {}

  static std::vector<Coloring> make_lanes(VertexId n, std::uint64_t seed) {
    std::vector<Coloring> ls;
    for (int l = 0; l < B; ++l) ls.emplace_back(n, 8, seed * 131 + l);
    return ls;
  }
};

/// One slot-0 bucket of coherent half-path rows keyed (u, v, sig),
/// sorted in the sealed kByV0V1 order, as both the dense entries and the
/// equivalent packed narrow rows. Signatures mix lane-consistent pairs
/// (so emissions actually happen) with random bytes (so the prefilter
/// rejects), counts live only on `allowed` lanes at `mag` magnitude, and
/// a few rows are all-zero (the dead-row skip).
template <int B, typename W>
std::pair<std::vector<TableEntryT<B>>, std::vector<PackedFlatRowT<B, W>>>
merge_bucket_rows(const ColoringBatch& chi, VertexId u, Count mag,
                  LaneMask allowed, Rng& rng) {
  std::vector<TableEntryT<B>> dense(300);
  for (auto& e : dense) {
    e.key.v[0] = u;
    e.key.v[1] = static_cast<VertexId>(rng.below(20));
    const int cl = static_cast<int>(rng.below(B));
    e.key.sig = rng.below(3) == 0
                    ? static_cast<Signature>(rng.below(256))
                    : static_cast<Signature>(chi.bit(e.key.v[0], cl) |
                                             chi.bit(e.key.v[1], cl) |
                                             (rng.below(2) == 0
                                                  ? Signature{1}
                                                        << rng.below(8)
                                                  : Signature{0}));
    if (rng.below(10) != 0) {
      for (int l = 0; l < B; ++l) {
        if (((allowed >> l) & 1u) != 0 && rng.below(2) == 0) {
          LaneOps<B>::set_lane(e.cnt, l, 1 + rng.below(mag));
        }
      }
    }
  }
  std::sort(dense.begin(), dense.end(), [](const auto& a, const auto& b) {
    return pack_key(a.key) < pack_key(b.key);
  });
  std::vector<PackedFlatRowT<B, W>> packed(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    packed[i].k = pack_key(dense[i].key);
    for (int l = 0; l < B; ++l) {
      packed[i].c[l] = static_cast<W>(LaneOps<B>::lane(dense[i].cnt, l));
    }
  }
  return {std::move(dense), std::move(packed)};
}

/// merge_bucket_packed against merge_bucket on the same bucket pair:
/// identical emission sequence (keys, counts, order) for the given width
/// pairing and live-lane shapes.
template <int B, typename WP, typename WM>
void run_packed_kernel_parity(std::uint64_t seed, Count pmag, Count mmag,
                              LaneMask plus_lanes, LaneMask minus_lanes,
                              bool expect_emissions) {
  MergeCx<B> f(seed);
  Rng rng(seed);
  const VertexId u = 5;
  auto [pd, pp] = merge_bucket_rows<B, WP>(f.chi, u, pmag, plus_lanes, rng);
  auto [md, mp] = merge_bucket_rows<B, WM>(f.chi, u, mmag, minus_lanes, rng);

  using Emit = std::pair<TableKey, typename LaneOps<B>::Vec>;
  for (const int arity : {2, 1, 0}) {
    MergeSpec spec;
    spec.out_arity = arity;
    spec.out[0] = {0, 0};
    spec.out[1] = {1, 1};
    std::vector<Emit> dense_out, packed_out;
    merge_bucket<B, /*Outer=*/0>(
        f.cx, std::span<const TableEntryT<B>>(pd),
        std::span<const TableEntryT<B>>(md), spec,
        [&](const TableKey& k, const auto& c) {
          dense_out.emplace_back(k, c);
        });
    merge_bucket_packed<B, /*Outer=*/0>(
        f.cx, std::span<const PackedFlatRowT<B, WP>>(pp),
        std::span<const PackedFlatRowT<B, WM>>(mp), spec,
        [&](const TableKey& k, const auto& c) {
          packed_out.emplace_back(k, c);
        });
    ASSERT_EQ(dense_out.size(), packed_out.size()) << "arity " << arity;
    for (std::size_t i = 0; i < dense_out.size(); ++i) {
      EXPECT_EQ(dense_out[i].first, packed_out[i].first) << "row " << i;
      EXPECT_EQ(dense_out[i].second, packed_out[i].second) << "row " << i;
    }
    if (arity == 2) {
      EXPECT_EQ(!dense_out.empty(), expect_emissions);
    }
  }
}

TEST(PackedMerge, KernelMatchesDenseU16xU16) {
  run_packed_kernel_parity<8, std::uint16_t, std::uint16_t>(
      301, 900, 900, 0xFF, 0xFF, true);
  run_packed_kernel_parity<4, std::uint16_t, std::uint16_t>(
      302, 900, 900, 0xF, 0xF, true);
  run_packed_kernel_parity<2, std::uint16_t, std::uint16_t>(
      303, 900, 900, 0x3, 0x3, true);
}

TEST(PackedMerge, KernelMatchesDenseMixedWidths) {
  // u16 x u32 both ways, and u32 x u32 with near-boundary counts whose
  // products stress the no-wrap claim (0xFFFFFFFF^2 < 2^64).
  run_packed_kernel_parity<8, std::uint16_t, std::uint32_t>(
      311, 0xFFFF, 0xFFFFFFFFull, 0xFF, 0xFF, true);
  run_packed_kernel_parity<8, std::uint32_t, std::uint16_t>(
      312, 0xFFFFFFFFull, 0xFFFF, 0xFF, 0xFF, true);
  run_packed_kernel_parity<8, std::uint32_t, std::uint32_t>(
      313, 0xFFFFFFFFull, 0xFFFFFFFFull, 0xFF, 0xFF, true);
}

TEST(PackedMerge, DisjointLiveLanesEmitNothingOnBothPaths) {
  // Plus rows live only in the low half-lanes, minus rows only in the
  // high half: every pair fails the live-lane intersection, so both
  // kernels must emit nothing (and agree on that).
  run_packed_kernel_parity<8, std::uint16_t, std::uint16_t>(
      321, 900, 900, 0x0F, 0xF0, false);
  run_packed_kernel_parity<4, std::uint16_t, std::uint16_t>(
      322, 900, 900, 0x3, 0xC, false);
}

/// merge_halves over narrow flat halves (the packed merge) and over the
/// same rows as dense tables (the dense merge_bucket) must reach the same
/// sink — `wide_escape` poisons the plus half with an unpackable key
/// first, so the flat run exercises the dense-fallback dispatch instead.
template <int B>
void run_merge_halves_parity(std::uint64_t seed, bool wide_escape) {
  using Vec = typename LaneOps<B>::Vec;
  std::vector<std::pair<TableKey, Vec>> prows, mrows;
  {
    MergeCx<B> f(seed);
    Rng rng(seed + 1);
    for (const VertexId u : {3u, 5u, 9u, 11u, 20u}) {
      auto [pd, pp] =
          merge_bucket_rows<B, std::uint16_t>(f.chi, u, 900, 0xFF, rng);
      auto [md, mp] =
          merge_bucket_rows<B, std::uint16_t>(f.chi, u, 900, 0xFF, rng);
      for (const auto& e : pd) prows.emplace_back(e.key, e.cnt);
      for (const auto& e : md) mrows.emplace_back(e.key, e.cnt);
    }
    if (wide_escape) {
      TableKey k;
      k.v[0] = 3;
      k.v[1] = 4;
      k.v[2] = 6;  // unpackable: drives the flat sink wide
      k.sig = 0x11;
      Vec c{};
      LaneOps<B>::set_lane(c, 0, 2);
      prows.emplace_back(k, c);
    }
  }
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {1, 1};
  std::array<std::vector<std::pair<std::array<std::uint64_t, 5>,
                                   std::array<Count, B>>>,
             2>
      results;
  for (const bool packed : {false, true}) {
    MergeCx<B> f(seed);
    auto table = [&](const std::vector<std::pair<TableKey, Vec>>& rows) {
      if (!packed) {
        std::vector<TableEntryT<B>> dense;
        for (const auto& [k, c] : rows) dense.push_back({k, c});
        return ProjTableT<B>::from_flat(2, std::move(dense));
      }
      // Born sorted: bucket w holds the rows ending at w.
      SortedBucketsT<B> buckets;
      FlatRowsT<B> scratch;
      for (VertexId w = 0; w < f.g.num_vertices(); ++w) {
        scratch.reset();
        for (const auto& [k, c] : rows) {
          if (k.v[1] == w) scratch.append(k, c);
        }
        buckets.close(scratch);
      }
      return ProjTableT<B>::from_buckets(2, std::move(buckets));
    };
    ProjTableT<B> plus = table(prows);
    ProjTableT<B> minus = table(mrows);
    if (packed && !wide_escape) {
      ASSERT_NE(plus.flat_storage(), nullptr);
      ASSERT_NE(minus.flat_storage(), nullptr);
    }
    AccumMapT<B> sink(16, true);
    merge_halves<B>(f.cx, plus, minus, spec, sink);
    auto& out = results[packed ? 1 : 0];
    sink.for_each([&](const TableKey& k, const Vec& c) {
      std::array<Count, B> cs{};
      for (int l = 0; l < B; ++l) cs[l] = LaneOps<B>::lane(c, l);
      out.emplace_back(
          std::array<std::uint64_t, 5>{k.v[0], k.v[1], k.v[2], k.v[3],
                                       k.sig},
          cs);
    });
    std::sort(out.begin(), out.end());
  }
  EXPECT_FALSE(results[0].empty());
  EXPECT_EQ(results[0], results[1]);
}

TEST(PackedMerge, MergeHalvesPackedMatchesDenseB8) {
  run_merge_halves_parity<8>(331, /*wide_escape=*/false);
}
TEST(PackedMerge, MergeHalvesPackedMatchesDenseB2) {
  run_merge_halves_parity<2>(332, /*wide_escape=*/false);
}
TEST(PackedMerge, MergeHalvesWideEscapeFallsBackIdentically) {
  run_merge_halves_parity<8>(333, /*wide_escape=*/true);
}

TEST(PackedMergeEngine, SessionAgreesWithScalarLaneForLane) {
  // Whole-pipeline cross-check on merge-heavy (cycle) queries: the B = 8
  // run merges on packed flat rows, and each lane must match the same
  // coloring counted alone at B = 1 (dense tables, dense merge).
  const CsrGraph g = erdos_renyi(60, 260, 35);
  std::vector<std::uint64_t> seeds{7300, 7301, 7302, 7303,
                                   7304, 7305, 7306, 7307};
  for (const QueryGraph& q : {q_cycle(5), q_cycle(6), q_dros()}) {
    CountingSession session(g, q, make_plan(q), ExecOptions{});
    const ExecStats batched = session.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(batched.colorful_lane[l],
                session.count_colorful_seeded(seeds[l]).colorful)
          << q.name() << " lane " << l;
    }
  }
}

// -------------------------------------------------------- end to end

TEST(LaneCompressEngine, CompressedAndDenseRunsAgreeLaneForLane) {
  const CsrGraph g = erdos_renyi(60, 260, 9);
  for (const QueryGraph& q : {q_glet2(), q_wiki(), q_cycle(5)}) {
    ExecOptions on;
    on.lane_compress = true;
    ExecOptions off;
    off.lane_compress = false;
    CountingSession son(g, q, make_plan(q), on);
    CountingSession soff(g, q, make_plan(q), off);
    std::vector<std::uint64_t> seeds{900, 901, 902, 903, 904, 905, 906,
                                     907};
    const ExecStats a = son.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    const ExecStats b = soff.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(a.colorful_lane[l], b.colorful_lane[l])
          << q.name() << " lane " << l;
    }
    // The compressed run actually packed something (child tables exist
    // for these queries) and observed its density.
    EXPECT_GT(a.lanes.rows, 0u);
    EXPECT_EQ(b.lanes.rows_packed, 0u);
  }
}

TEST(LaneCompressEngine, DistributedAgreesWithSharedUnderCompression) {
  const CsrGraph g = erdos_renyi(40, 170, 15);
  const QueryGraph q = q_glet2();
  const Plan plan = make_plan(q);
  ExecOptions opts;
  std::vector<Coloring> lanes;
  for (int l = 0; l < 8; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), 1200 + l);
  }
  const ColoringBatch batch(lanes);
  CountingSession session(g, q, plan, opts);
  const ExecStats shared = session.count_colorful(batch);
  const DistStats dist =
      run_plan_distributed(g, plan.tree, batch, /*ranks=*/3, opts);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(dist.colorful_lane[l], shared.colorful_lane[l]) << l;
  }
  // The wire carried lane-compressed rows and accounted their density.
  EXPECT_GT(dist.transport.lane_slots_sent, 0u);
  EXPECT_GT(dist.transport.wire_lane_density(), 0.0);
  EXPECT_LE(dist.transport.off_rank_bytes(),
            dist.transport.off_rank_entries * dist.transport.entry_bytes);
}

}  // namespace
}  // namespace ccbt
