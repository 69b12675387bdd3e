// Packed flat rows (a packed key with a u64 count): stored tables are
// dense and their layout telemetry exact whichever way they were built,
// the packed flat rows and the packed merge reproduce the dense rows
// exactly — across counts past the u16 and u32 limits and sums that wrap
// mod 2^64 — a table stays packed until a key does not pack, and whole
// runs match the exact colorful counts in both engines, batched or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/dist/comm.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

constexpr VertexId kDomain = 512;

/// Random flat rows with counts uniform in [1, max_count]. Keys collide
/// freely, so the bucket builds sum runs.
std::vector<TableEntry> random_rows(std::size_t n, Count max_count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TableEntry> rows(n);
  for (auto& e : rows) {
    e.key.v[0] = static_cast<VertexId>(rng.below(kDomain));
    e.key.v[1] = static_cast<VertexId>(rng.below(kDomain));
    e.key.sig = static_cast<Signature>(1u << rng.below(8));
    e.cnt = 1 + rng.below(max_count);
  }
  return rows;
}

/// The layout() a born-sorted packed table of `rows` must report: one row
/// per key, counts summed, computed without the table code.
LaneLayoutInfo expected_layout(const std::vector<TableEntry>& rows) {
  std::map<std::array<std::uint64_t, 3>, Count> sums;
  for (const TableEntry& e : rows) {
    sums[{e.key.v[0], e.key.v[1], e.key.sig}] += e.cnt;
  }
  LaneLayoutInfo info;
  info.rows = sums.size();
  for (const auto& [key, sum] : sums) {
    info.lanes_occupied += sum != 0;
    info.max_count = std::max(info.max_count, sum);
  }
  return info;
}

void expect_counts(const LaneLayoutInfo& got, const LaneLayoutInfo& want,
                   const char* what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.lanes_occupied, want.lanes_occupied) << what;
  EXPECT_EQ(got.max_count, want.max_count) << what;
}

/// Build the same rows twice — born sorted (one bucket per frontier
/// vertex) and as a stored sink table (sealed kByV0) — and require the
/// born table to be packed and report its bucket build's exact layout
/// whatever its counts, the sink table to be dense and unobserved, and
/// the born table transposed twice (each a sink table) to equal the sink
/// table row for row and probe for probe.
void expect_layout_parity(const std::vector<TableEntry>& rows) {
  const LaneLayoutInfo want = expected_layout(rows);
  const ProjTable born = path_table(2, rows, kDomain);
  EXPECT_TRUE(born.packed_flat());
  EXPECT_TRUE(born.layout().packed);
  expect_counts(born.layout(), want, "born sorted");

  const ProjTable stored = sink_table(2, rows, kDomain);
  EXPECT_FALSE(stored.packed_flat());
  EXPECT_EQ(stored.layout().rows, 0u);
  const ProjTable round = born.transposed(kDomain).transposed(kDomain);
  EXPECT_FALSE(round.packed_flat());

  ASSERT_EQ(round.size(), want.rows);
  ASSERT_EQ(stored.size(), want.rows);
  const auto re = round.entries();
  const auto se = stored.entries();
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_EQ(re[i].key, se[i].key) << "row " << i;
    EXPECT_EQ(re[i].cnt, se[i].cnt) << "row " << i;
  }
  for (VertexId v = 0; v < kDomain + 3; ++v) {
    const auto rg = round.group(0, v);
    const auto sg = stored.group(0, v);
    ASSERT_EQ(rg.size(), sg.size()) << "group " << v;
    ASSERT_EQ(rg.data() - re.data(), sg.data() - se.data()) << "group " << v;
  }
}

TEST(LaneCompress, BornSortedAndSinkTablesAlike) {
  expect_layout_parity(random_rows(4000, 1000, 17));
  // Run sums pass the u16 limit, single counts the u32 limit.
  expect_layout_parity(random_rows(4000, 60000, 19));
  expect_layout_parity(random_rows(2000, Count{1} << 40, 21));
  expect_layout_parity(random_rows(2500, 3, 23));
  // Run sums that wrap mod 2^64, as the sink's sums do.
  expect_layout_parity(random_rows(2000, Count{1} << 63, 25));
}

TEST(LaneCompress, CountsAtWidthBoundariesStoreExactly) {
  // Counts at and just past the u16 and u32 limits: the born-sorted build
  // stays packed, reports each largest count, and both stored forms keep
  // every count.
  for (const Count big : {Count{0xFFFF}, Count{0x10000}, Count{0xFFFFFFFF},
                          Count{0x100000000}}) {
    std::vector<TableEntry> rows(64);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].key.v[0] = static_cast<VertexId>(i % 16);
      rows[i].key.v[1] = static_cast<VertexId>(i);
      rows[i].key.sig = 1;
      rows[i].cnt = i == 0 ? big : 7;
    }
    SCOPED_TRACE(big);
    expect_layout_parity(rows);
  }
}

// ---------------------------------------------------------------- wire

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

// ---------------------------------------------------------- flat rows

/// Key -> summed count, independent of row order, duplicates, and the
/// width the sink happened to hold them in.
std::map<std::array<std::uint64_t, 5>, Count> flat_totals(FlatRows&& rows) {
  std::map<std::array<std::uint64_t, 5>, Count> out;
  for (const auto& e : rows.take_wide()) {
    out[{e.key.v[0], e.key.v[1], e.key.v[2], e.key.v[3], e.key.sig}] +=
        e.cnt;
  }
  return out;
}

TEST(LaneCompressFlat, AppendStaysPackedUntilUnpackableKey) {
  // In the layout of a 100-vertex graph, counts past u16, u32 and 2^63
  // and tracked slots stay packed; the first key that does not pack (a
  // ninth color) moves the buffer to wide rows, and earlier rows must
  // survive the conversion exactly.
  FlatRows f(KeyLayout::for_vertices(100));
  TableKey k;
  k.v[0] = 1;
  k.v[1] = 2;
  k.sig = 4;
  for (const Count c : {Count{9}, Count{0x12345}, Count{0x1FFFFFFFF},
                        Count{0x8000000000000001}}) {
    f.append(k, c);
    ASSERT_TRUE(f.packed()) << c;
  }
  TableKey tracked = k;
  tracked.v[2] = 7;
  tracked.v[3] = 99;
  f.append(tracked, 5);
  ASSERT_TRUE(f.packed());
  TableKey wide = k;
  wide.sig = 0x104;
  f.append(wide, 6);
  EXPECT_FALSE(f.packed());
  EXPECT_EQ(f.size(), 6u);

  const auto totals = flat_totals(std::move(f));
  const std::array<std::uint64_t, 5> key{1, 2, kNoVertex, kNoVertex, 4};
  const std::array<std::uint64_t, 5> tracked_key{1, 2, 7, 99, 4};
  const std::array<std::uint64_t, 5> wide_key{1, 2, kNoVertex, kNoVertex,
                                              0x104};
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals.at(key),
            9 + 0x12345ull + 0x1FFFFFFFFull + 0x8000000000000001ull);
  EXPECT_EQ(totals.at(tracked_key), 5u);
  EXPECT_EQ(totals.at(wide_key), 6u);
}

TEST(LaneCompressFlat, PackedStreamMatchesGenericAppend) {
  // The streaming append (caller-packed key, no key check) against the
  // generic append of the unpacked row — including after an unpackable
  // key flips both onto wide rows and the stream onto its fallback.
  // Keys carry tracked slots, which a 40-vertex graph's layout packs.
  Rng rng(91);
  const KeyLayout lay = KeyLayout::for_vertices(40);
  FlatRows stream_sink(lay);
  FlatRows generic_sink(lay);
  auto emit = [&] {
    TableKey k;
    k.v[0] = static_cast<VertexId>(rng.below(40));
    k.v[1] = static_cast<VertexId>(rng.below(40));
    if (rng.below(2) == 0) k.v[2] = static_cast<VertexId>(rng.below(40));
    if (rng.below(2) == 0) k.v[3] = static_cast<VertexId>(rng.below(40));
    k.sig = static_cast<Signature>(rng.below(256));
    const Count c = rng.below(Count{1} << 40);
    stream_sink.append_packed(lay.pack(k), c);
    generic_sink.append(k, c);
  };
  for (int i = 0; i < 3000; ++i) emit();
  ASSERT_TRUE(stream_sink.packed());
  TableKey bigk;
  bigk.v[0] = 3;
  bigk.v[1] = 5;
  bigk.sig = 0x100;  // a ninth colour does not pack
  stream_sink.append(bigk, 0x99999ull);
  generic_sink.append(bigk, 0x99999ull);
  ASSERT_FALSE(stream_sink.packed());
  for (int i = 0; i < 1000; ++i) emit();
  EXPECT_EQ(flat_totals(std::move(stream_sink)),
            flat_totals(std::move(generic_sink)));
}

TEST(LaneCompressFlat, RunSumPastU32StaysPackedAtBucketClose) {
  // Same-key appends whose sum outgrows u32 stay duplicate rows; closing
  // the bucket sums them exactly and the merged row stays packed.
  FlatRows f(KeyLayout::for_vertices(10));
  TableKey k;
  k.v[0] = 6;
  k.v[1] = 9;
  k.sig = 2;
  const int reps = 40;  // 40 * 0xF0000000 > u32
  for (int i = 0; i < reps; ++i) f.append(k, 0xF0000000ull);
  EXPECT_EQ(f.size(), static_cast<std::size_t>(reps));
  FlatRows sealed(f.layout());
  LaneLayoutInfo st;
  f.drain_bucket_into(sealed, st);
  const Count want = static_cast<Count>(reps) * 0xF0000000ull;
  EXPECT_TRUE(sealed.packed());
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(sealed.packed_rows()[0].c, want);
  EXPECT_EQ(st.rows, 1u);
  EXPECT_EQ(st.max_count, want);
  EXPECT_GT(st.max_count, Count{0xFFFFFFFF});
  const auto totals = flat_totals(std::move(sealed));
  const std::array<std::uint64_t, 5> key{6, 9, kNoVertex, kNoVertex, 2};
  ASSERT_EQ(totals.count(key), 1u);
  EXPECT_EQ(totals.at(key), want);
}

TEST(LaneTelemetry, FilesPackedRowsByLargestCount) {
  // A packed table's rows land under u16, u32 or u64 by its largest
  // count; an unpacked table adds to the row totals only, and a table
  // never observed (rows == 0) adds nothing.
  LaneTelemetry t;
  auto note = [&](std::uint64_t rows, Count max_count, bool packed) {
    LaneLayoutInfo info;
    info.rows = rows;
    info.lanes_occupied = rows;
    info.max_count = max_count;
    info.packed = packed;
    t.note(info);
  };
  note(1, 0xFFFF, true);
  note(2, 0x10000, true);
  note(4, 0xFFFFFFFF, true);
  note(8, Count{1} << 32, true);
  note(16, ~Count{0}, true);
  EXPECT_EQ(t.width_rows, (std::array<std::uint64_t, 3>{1, 6, 24}));
  EXPECT_EQ(t.rows_packed, 31u);
  note(32, 5, false);
  note(0, 0x10000, true);
  EXPECT_EQ(t.width_rows, (std::array<std::uint64_t, 3>{1, 6, 24}));
  EXPECT_EQ(t.rows_packed, 31u);
  EXPECT_EQ(t.rows, 63u);
  EXPECT_EQ(t.lanes_occupied, 63u);
}

// ------------------------------------------------------- packed merge

/// A single-coloring context whose coloring the pair-compatibility test
/// consults.
struct MergeCx {
  CsrGraph g;
  Coloring chi;
  DegreeOrder order;
  ExecOptions opts;
  ExecContext cx;

  explicit MergeCx(std::uint64_t seed, VertexId n = 64)
      : g(erdos_renyi(n, 4 * n, seed)),
        chi(n, 8, seed * 131),
        order(g),
        cx{g, chi, order, BlockPartition(n, 2), nullptr, opts} {}
};

/// One end bucket of coherent half-path rows keyed (u, v, sig), a third
/// of them with a tracked slot 2, all ending at `v` and sorted in the born
/// kByV1 order, as both the dense entries and the equivalent rows packed
/// in `lay`. Signatures mix
/// coloring-consistent pairs (so emissions actually happen) with random
/// bytes (so the prefilter rejects), counts run up to `mag`, and a few
/// rows carry a zero count (which the packed kernel skips).
std::pair<std::vector<TableEntry>, std::vector<PackedFlatRow>>
merge_bucket_rows(const Coloring& chi, const KeyLayout& lay, VertexId v,
                  Count mag, Rng& rng) {
  std::vector<TableEntry> dense(300);
  for (auto& e : dense) {
    e.key.v[0] = static_cast<VertexId>(rng.below(20));
    e.key.v[1] = v;
    if (rng.below(3) == 0) e.key.v[2] = static_cast<VertexId>(rng.below(20));
    e.key.sig = rng.below(3) == 0
                    ? static_cast<Signature>(rng.below(256))
                    : static_cast<Signature>(
                          chi.bit(e.key.v[0]) | chi.bit(e.key.v[1]) |
                          (rng.below(2) == 0 ? Signature{1} << rng.below(8)
                                             : Signature{0}));
    e.cnt = rng.below(10) == 0 ? 0 : 1 + rng.below(mag);
  }
  std::sort(dense.begin(), dense.end(), [&](const auto& a, const auto& b) {
    return lay.pack(a.key) < lay.pack(b.key);
  });
  std::vector<PackedFlatRow> packed(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    packed[i] = {lay.pack(dense[i].key), dense[i].cnt};
  }
  return {std::move(dense), std::move(packed)};
}

/// merge_bucket_packed against merge_bucket on the same bucket pair:
/// identical emission sequence (keys, counts, order), once the dense
/// kernel's zero-count emissions are dropped. The counts are drawn so
/// that no product of two nonzero counts is 0 mod 2^64.
void run_packed_kernel_parity(std::uint64_t seed, Count pmag, Count mmag) {
  MergeCx f(seed);
  Rng rng(seed);
  const VertexId v = 5;
  const KeyLayout lay = f.cx.key_layout();
  ASSERT_EQ(lay.slots(), 4);
  auto [pd, pp] = merge_bucket_rows(f.chi, lay, v, pmag, rng);
  auto [md, mp] = merge_bucket_rows(f.chi, lay, v, mmag, rng);

  using Emit = std::pair<TableKey, Count>;
  for (const int arity : {2, 1, 0}) {
    MergeSpec spec;
    spec.out_arity = arity;
    spec.out[0] = {0, 0};
    spec.out[1] = {1, 1};
    std::vector<Emit> dense_out, packed_out;
    merge_bucket(f.cx, std::span<const TableEntry>(pd),
                 std::span<const TableEntry>(md), spec,
                 [&](const TableKey& k, Count c) {
                   if (c != 0) dense_out.emplace_back(k, c);
                 });
    merge_bucket_packed(f.cx, lay, std::span<const PackedFlatRow>(pp),
                        std::span<const PackedFlatRow>(mp), spec,
                        [&](const TableKey& k, Count c) {
                          packed_out.emplace_back(k, c);
                        });
    ASSERT_EQ(dense_out.size(), packed_out.size()) << "arity " << arity;
    for (std::size_t i = 0; i < dense_out.size(); ++i) {
      EXPECT_EQ(dense_out[i].first, packed_out[i].first) << "row " << i;
      EXPECT_EQ(dense_out[i].second, packed_out[i].second) << "row " << i;
    }
    if (arity == 2) {
      EXPECT_FALSE(dense_out.empty());
    }
  }
}

TEST(PackedMerge, KernelMatchesDenseSmallCounts) {
  run_packed_kernel_parity(301, 900, 900);
  run_packed_kernel_parity(302, 0xFFFF, 0xFFFF);
}

TEST(PackedMerge, KernelMatchesDenseU64Counts) {
  // Counts past u16 and u32 on either side, then products past 2^64:
  // the packed kernel must wrap them exactly as merge_bucket does.
  run_packed_kernel_parity(311, 0xFFFF, 0xFFFFFFFFull);
  run_packed_kernel_parity(312, 0xFFFFFFFFull, 0xFFFF);
  run_packed_kernel_parity(313, 0xFFFFFFFFull, 0xFFFFFFFFull);
  run_packed_kernel_parity(314, Count{1} << 40, Count{1} << 40);
  run_packed_kernel_parity(315, Count{1} << 62, 0xFFFF);
}

using SinkRows = std::vector<std::pair<std::array<std::uint64_t, 5>, Count>>;

/// A sink's nonzero rows in key order (the dense merge adds zero products
/// too).
SinkRows sink_rows(const FlatRows& sink) {
  SinkRows out;
  sink.for_each_dense([&](const TableEntry& e) {
    const TableKey& k = e.key;
    const Count c = e.cnt;
    if (c == 0) return;
    out.emplace_back(
        std::array<std::uint64_t, 5>{k.v[0], k.v[1], k.v[2], k.v[3], k.sig},
        c);
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// merge_halves over packed flat halves (the packed merge) and over the
/// same rows as dense tables (the dense merge_bucket) must reach the same
/// sink — `wide_escape` poisons the plus half with an unpackable key
/// first, so the flat run exercises the dense-fallback dispatch instead.
void run_merge_halves_parity(std::uint64_t seed, bool wide_escape) {
  std::vector<TableEntry> prows, mrows;
  {
    MergeCx f(seed);
    Rng rng(seed + 1);
    for (const VertexId v : {3u, 5u, 9u, 11u, 20u}) {
      auto [pd, pp] = merge_bucket_rows(f.chi, f.cx.key_layout(), v, 900, rng);
      auto [md, mp] = merge_bucket_rows(f.chi, f.cx.key_layout(), v, 900, rng);
      prows.insert(prows.end(), pd.begin(), pd.end());
      mrows.insert(mrows.end(), md.begin(), md.end());
    }
    if (wide_escape) {
      TableKey k;
      k.v[0] = 3;
      k.v[1] = 4;
      k.v[2] = 6;
      k.sig = 0x111;  // a ninth color does not pack: drives the sink wide
      prows.push_back({k, 2});
    }
  }
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {1, 1};
  std::array<SinkRows, 2> results;
  for (const bool packed : {false, true}) {
    MergeCx f(seed);
    auto table = [&](const std::vector<TableEntry>& rows) {
      return path_table(2, rows, f.g.num_vertices(), /*dense=*/!packed);
    };
    ProjTable plus = table(prows);
    ProjTable minus = table(mrows);
    if (packed && !wide_escape) {
      ASSERT_NE(plus.flat_storage(), nullptr);
      ASSERT_NE(minus.flat_storage(), nullptr);
    }
    FlatRows sink(f.cx.key_layout());
    merge_halves(f.cx, plus, minus, spec, sink);
    results[packed ? 1 : 0] = sink_rows(sink);
  }
  EXPECT_FALSE(results[0].empty());
  EXPECT_EQ(results[0], results[1]);
}

TEST(PackedMerge, MergeHalvesPackedMatchesDense) {
  run_merge_halves_parity(331, /*wide_escape=*/false);
  run_merge_halves_parity(332, /*wide_escape=*/false);
}
TEST(PackedMerge, MergeHalvesWideEscapeFallsBackIdentically) {
  run_merge_halves_parity(333, /*wide_escape=*/true);
}

TEST(PackedMerge, RunSumsPast2To32StayPackedThroughMergeAndFusedSplit) {
  // Packable keys whose run sums pass 2^32 (and whose products pass
  // 2^64): the bucket build keeps them packed, the merge joins them
  // through the packed kernel and the fused split reads them as a packed
  // prefix, and every sink equals the one the dense tables reach.
  MergeCx f(341);
  const VertexId n = f.g.num_vertices();
  Rng rng(342);
  std::vector<TableEntry> prows, mrows;
  for (VertexId v = 0; v < n; ++v) {
    auto [pd, pp] = merge_bucket_rows(f.chi, f.cx.key_layout(), v, 900, rng);
    auto [md, mp] = merge_bucket_rows(f.chi, f.cx.key_layout(), v, 900, rng);
    for (std::size_t i = 0; i < pd.size(); i += 3) {
      pd.push_back({pd[i].key, 0xF0000000ull});
      pd.push_back({pd[i].key, 0xF0000000ull});
    }
    for (std::size_t i = 0; i < md.size(); i += 3) {
      md.push_back({md[i].key, 0xF0000000ull});
      md.push_back({md[i].key, 0xF0000000ull});
    }
    prows.insert(prows.end(), pd.begin(), pd.end());
    mrows.insert(mrows.end(), md.begin(), md.end());
  }
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {1, 1};

  ProjTable plus = path_table(2, prows, n);
  ProjTable minus = path_table(2, mrows, n);
  for (const ProjTable* t : {&plus, &minus}) {
    ASSERT_TRUE(t->packed_flat());
    EXPECT_GT(t->layout().max_count, Count{0xFFFFFFFF});
  }
  ProjTable dense_plus = path_table(2, prows, n, /*dense=*/true);
  ProjTable dense_minus = path_table(2, mrows, n, /*dense=*/true);

  FlatRows packed_sink(f.cx.key_layout()), dense_sink(f.cx.key_layout());
  merge_halves(f.cx, plus, minus, spec, packed_sink);
  merge_halves(f.cx, dense_plus, dense_minus, spec, dense_sink);
  EXPECT_TRUE(plus.packed_flat());
  EXPECT_TRUE(minus.packed_flat());
  EXPECT_FALSE(dense_plus.packed_flat());
  const SinkRows merged = sink_rows(dense_sink);
  EXPECT_FALSE(merged.empty());
  EXPECT_EQ(sink_rows(packed_sink), merged);

  // The minus table as the prefix of a fused last extend, against the
  // extend built from the dense rows and merged with the dense plus.
  FlatRows fused_sink(f.cx.key_layout()), unfused_sink(f.cx.key_layout());
  (void)extend_and_merge(f.cx, minus, nullptr, ExtendOpts{}, plus, spec,
                         fused_sink);
  EXPECT_TRUE(minus.packed_flat());
  ProjTable extended = extend_with_graph(f.cx, dense_minus, ExtendOpts{});
  merge_halves(f.cx, dense_plus, extended, spec, unfused_sink);
  const SinkRows want = sink_rows(unfused_sink);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(sink_rows(fused_sink), want);
}

TEST(PackedMergeEngine, SessionAgreesWithScalarLaneForLane) {
  // Whole-pipeline cross-check on merge-heavy (cycle) queries: each lane
  // of an 8-coloring batch must match the same coloring counted alone.
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

/// The colorful count of each seeded coloring, enumerated exactly.
std::vector<Count> exact_lanes(const CsrGraph& g, const QueryGraph& q,
                               const std::vector<std::uint64_t>& seeds) {
  std::vector<Count> out;
  for (const std::uint64_t seed : seeds) {
    out.push_back(count_colorful_exact(
        g, q, Coloring(g.num_vertices(), q.num_nodes(), seed)));
  }
  return out;
}

TEST(LaneCompressEngine, PackedRunsMatchExactLaneForLane) {
  const CsrGraph g = erdos_renyi(60, 260, 9);
  const std::vector<std::uint64_t> seeds{900, 901, 902, 903,
                                         904, 905, 906, 907};
  for (const QueryGraph& q : {q_glet2(), q_wiki(), q_cycle(5)}) {
    CountingSession session(g, q, make_plan(q), ExecOptions{});
    const ExecStats a = session.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    const std::vector<Count> want = exact_lanes(g, q, seeds);
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(a.colorful_lane[l], want[l]) << q.name() << " lane " << l;
    }
    // The run actually packed something (child tables exist for these
    // queries) and observed its density.
    EXPECT_GT(a.lanes.rows, 0u);
    EXPECT_GT(a.lanes.rows_packed, 0u);
  }
}

TEST(LaneCompressEngine, DistributedAgreesWithSharedAndExact) {
  // The distributed engine's per-coloring counts and packed-row telemetry
  // equal the shared engine's, and both counts equal the exact ones.
  const CsrGraph g = erdos_renyi(40, 170, 15);
  const QueryGraph q = q_glet2();
  const Plan plan = make_plan(q);
  std::vector<std::uint64_t> seeds;
  std::vector<Coloring> lanes;
  for (int l = 0; l < 8; ++l) {
    seeds.push_back(1200 + l);
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), seeds.back());
  }
  const ColoringBatch batch(lanes);
  CountingSession session(g, q, plan, ExecOptions{});
  const ExecStats shared = session.count_colorful(batch);
  const DistStats dist =
      run_plan_distributed(g, plan.tree, batch, /*ranks=*/3, ExecOptions{});
  const std::vector<Count> want = exact_lanes(g, q, seeds);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(shared.colorful_lane[l], want[l]) << "lane " << l;
    EXPECT_EQ(dist.colorful_lane[l], want[l]) << "lane " << l;
  }
  EXPECT_EQ(dist.lanes.rows_packed, shared.lanes.rows_packed);
  EXPECT_GT(shared.lanes.rows_packed, 0u);
}

}  // namespace
}  // namespace ccbt
