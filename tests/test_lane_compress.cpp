// Narrow count rows (ExecOptions::lane_compress): stored tables are dense
// and their layout telemetry exact whichever way they were built, the
// narrow flat rows and the packed merge reproduce the dense rows exactly
// — across counts past the u16 and u32 limits — and whole runs agree with
// narrow rows on and off, batched or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/dist/comm.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

constexpr VertexId kDomain = 512;

/// Random flat rows with counts uniform in [1, max_count]. Keys collide
/// freely so the sealing dedup runs too.
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

/// The layout() a born-sorted narrow table of `rows` must report: one row
/// per key, counts summed, computed without the table code.
LaneLayoutInfo expected_layout(const std::vector<TableEntry>& rows) {
  std::map<std::array<std::uint64_t, 3>, Count> sums;
  for (const TableEntry& e : rows) {
    sums[{e.key.v[0], e.key.v[1], e.key.sig}] += e.cnt;
  }
  LaneLayoutInfo info;
  info.rows = sums.size();
  info.lane_slots = info.rows;
  for (const auto& [key, sum] : sums) {
    info.lanes_occupied += sum != 0;
    info.max_count = std::max(info.max_count, sum);
  }
  return info;
}

void expect_counts(const LaneLayoutInfo& got, const LaneLayoutInfo& want,
                   const char* what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.lane_slots, want.lane_slots) << what;
  EXPECT_EQ(got.lanes_occupied, want.lanes_occupied) << what;
  EXPECT_EQ(got.max_count, want.max_count) << what;
}

/// Build the same rows twice — born sorted (one bucket per frontier
/// vertex, then resealed kByV0 as a stored table is) and adopted flat
/// (sealed kByV0) — and require both to be dense, equal row for row and
/// probe for probe. The born table is narrow while its counts fit u32 and
/// then reports its bucket build's exact layout, through a relabelling
/// seal and the dense reseal; the flat table is never observed.
void expect_layout_parity(const std::vector<TableEntry>& rows) {
  const LaneLayoutInfo want = expected_layout(rows);
  SortedBuckets buckets;
  FlatRows scratch;
  for (VertexId w = 0; w < kDomain; ++w) {
    scratch.reset();
    for (const TableEntry& e : rows) {
      if (e.key.v[1] == w) scratch.append(e.key, e.cnt);
    }
    buckets.close(scratch);
  }
  ProjTable born = ProjTable::from_buckets(2, std::move(buckets));
  const PayloadWidth width = choose_payload_width(want.max_count);
  const bool narrow = width != PayloadWidth::kU64;
  EXPECT_EQ(born.packed_flat(), narrow);
  if (narrow) {
    EXPECT_TRUE(born.layout().packed);
    EXPECT_EQ(born.layout().width, width);
    expect_counts(born.layout(), want, "born sorted");
    born.seal(SortOrder::kByV1, kDomain);  // a relabel scans nothing
    EXPECT_TRUE(born.packed_flat());
    expect_counts(born.layout(), want, "relabel");
  } else {
    EXPECT_EQ(born.layout().rows, 0u);
  }

  ProjTable flat = ProjTable::from_flat(2, std::vector<TableEntry>(rows));
  born.seal(SortOrder::kByV0, kDomain);
  flat.seal(SortOrder::kByV0, kDomain);
  EXPECT_FALSE(born.packed_flat());
  EXPECT_FALSE(born.layout().packed);
  EXPECT_EQ(born.layout().rows, narrow ? want.rows : 0u);
  EXPECT_FALSE(flat.packed_flat());
  EXPECT_EQ(flat.layout().rows, 0u);

  ASSERT_EQ(born.size(), want.rows);
  ASSERT_EQ(flat.size(), want.rows);
  const auto be = born.entries();
  const auto fe = flat.entries();
  for (std::size_t i = 0; i < be.size(); ++i) {
    EXPECT_EQ(be[i].key, fe[i].key) << "row " << i;
    EXPECT_EQ(be[i].cnt, fe[i].cnt) << "row " << i;
  }
  for (VertexId v = 0; v < kDomain + 3; ++v) {
    const auto bg = born.group(0, v);
    const auto fg = flat.group(0, v);
    ASSERT_EQ(bg.size(), fg.size()) << "group " << v;
    ASSERT_EQ(bg.data() - be.data(), fg.data() - fe.data()) << "group " << v;
  }
}

TEST(LaneCompress, BornSortedAndFlatStoreAlike) {
  expect_layout_parity(random_rows(4000, 1000, 17));
  // Run sums pass the u16 limit, single counts the u32 limit.
  expect_layout_parity(random_rows(4000, 60000, 19));
  expect_layout_parity(random_rows(2000, Count{1} << 40, 21));
  expect_layout_parity(random_rows(2500, 3, 23));
}

TEST(LaneCompress, CountsAtWidthBoundariesStoreExactly) {
  // Counts at and just past each width limit: the born-sorted build
  // escalates u16 -> u32 -> wide, and both stored forms keep every count.
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

TEST(LaneCompressFlat, AppendEscalatesMidAccumulation) {
  // u16 -> u32 -> wide, forced mid-stream; earlier rows must survive each
  // conversion exactly.
  FlatRows f;
  TableKey k;
  k.v[0] = 1;
  k.v[1] = 2;
  k.sig = 4;
  f.append(k, 9);
  ASSERT_EQ(f.mode(), FlatRows::Mode::kU16);
  f.append(k, 0x12345ull);  // > u16
  EXPECT_EQ(f.mode(), FlatRows::Mode::kU32);
  f.append(k, 0x1FFFFFFFFull);  // > u32
  EXPECT_EQ(f.mode(), FlatRows::Mode::kWide);
  EXPECT_EQ(f.size(), 3u);

  const auto totals = flat_totals(std::move(f));
  const std::array<std::uint64_t, 5> key{1, 2, kNoVertex, kNoVertex, 4};
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals.at(key), 9 + 0x12345ull + 0x1FFFFFFFFull);
}

TEST(LaneCompressFlat, U16StreamMatchesGenericAppend) {
  // The all-16-bit streaming append (packed key + u16 count, no width
  // decision) against the generic append of the unpacked row — including
  // after a mid-stream escalation flips it onto its fallback path.
  Rng rng(91);
  FlatRows stream_sink;
  FlatRows generic_sink;
  auto emit_u16 = [&] {
    TableKey k;
    k.v[0] = static_cast<VertexId>(rng.below(40));
    k.v[1] = static_cast<VertexId>(rng.below(40));
    k.sig = static_cast<Signature>(rng.below(256));
    const auto c = static_cast<std::uint16_t>(rng.below(0x10000));
    stream_sink.append_u16(pack_key(k), c);
    generic_sink.append(k, c);
  };
  for (int i = 0; i < 3000; ++i) emit_u16();
  // Escalate both sinks out of u16 mode with one oversized generic
  // emission, then keep streaming: append_u16 must take its fallback
  // branch and still agree.
  TableKey bigk;
  bigk.v[0] = 3;
  bigk.v[1] = 5;
  bigk.sig = 8;
  stream_sink.append(bigk, 0x99999ull);
  generic_sink.append(bigk, 0x99999ull);
  ASSERT_NE(stream_sink.mode(), FlatRows::Mode::kU16);
  for (int i = 0; i < 1000; ++i) emit_u16();
  EXPECT_EQ(flat_totals(std::move(stream_sink)),
            flat_totals(std::move(generic_sink)));
}

TEST(LaneCompressFlat, U16RunSumOverflowEscalatesAtBucketClose) {
  // Repeated same-key u16 appends whose sum outgrows u16 stay duplicate
  // rows (no wrap); closing the bucket must sum them exactly and escalate
  // the sealed rows to u32.
  FlatRows f;
  TableKey k;
  k.v[0] = 6;
  k.v[1] = 9;
  k.sig = 2;
  const int reps = 40;  // 40 * 0x7000 = 0x118000 > u16
  for (int i = 0; i < reps; ++i) f.append_u16(pack_key(k), 0x7000);
  EXPECT_EQ(f.mode(), FlatRows::Mode::kU16);
  EXPECT_EQ(f.size(), static_cast<std::size_t>(reps));
  FlatRows sealed;
  FlatStats st;
  f.drain_bucket_into(sealed, st);
  EXPECT_EQ(sealed.mode(), FlatRows::Mode::kU32);
  EXPECT_EQ(sealed.size(), 1u);
  EXPECT_EQ(st.max_count, static_cast<Count>(reps) * 0x7000ull);
  const auto totals = flat_totals(std::move(sealed));
  const std::array<std::uint64_t, 5> key{6, 9, kNoVertex, kNoVertex, 2};
  ASSERT_EQ(totals.count(key), 1u);
  EXPECT_EQ(totals.at(key), static_cast<Count>(reps) * 0x7000ull);
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

/// One end bucket of coherent half-path rows keyed (u, v, sig), all
/// ending at `v` and sorted in the born kByV1 order, as both the dense
/// entries and the equivalent packed narrow rows. Signatures mix
/// coloring-consistent pairs (so emissions actually happen) with random
/// bytes (so the prefilter rejects), counts run up to `mag`, and a few
/// rows carry a zero count (which the packed kernel skips).
template <typename W>
std::pair<std::vector<TableEntry>, std::vector<PackedFlatRow<W>>>
merge_bucket_rows(const Coloring& chi, VertexId v, Count mag, Rng& rng) {
  std::vector<TableEntry> dense(300);
  for (auto& e : dense) {
    e.key.v[0] = static_cast<VertexId>(rng.below(20));
    e.key.v[1] = v;
    e.key.sig = rng.below(3) == 0
                    ? static_cast<Signature>(rng.below(256))
                    : static_cast<Signature>(
                          chi.bit(e.key.v[0]) | chi.bit(e.key.v[1]) |
                          (rng.below(2) == 0 ? Signature{1} << rng.below(8)
                                             : Signature{0}));
    e.cnt = rng.below(10) == 0 ? 0 : 1 + rng.below(mag);
  }
  std::sort(dense.begin(), dense.end(), [](const auto& a, const auto& b) {
    return pack_key(a.key) < pack_key(b.key);
  });
  std::vector<PackedFlatRow<W>> packed(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    packed[i] = {pack_key(dense[i].key), static_cast<W>(dense[i].cnt)};
  }
  return {std::move(dense), std::move(packed)};
}

/// merge_bucket_packed against merge_bucket on the same bucket pair:
/// identical emission sequence (keys, counts, order) for the given width
/// pairing, once the dense kernel's zero-count emissions are dropped.
template <typename WP, typename WM>
void run_packed_kernel_parity(std::uint64_t seed, Count pmag, Count mmag) {
  MergeCx f(seed);
  Rng rng(seed);
  const VertexId v = 5;
  auto [pd, pp] = merge_bucket_rows<WP>(f.chi, v, pmag, rng);
  auto [md, mp] = merge_bucket_rows<WM>(f.chi, v, mmag, rng);

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
    merge_bucket_packed(f.cx, std::span<const PackedFlatRow<WP>>(pp),
                        std::span<const PackedFlatRow<WM>>(mp), spec,
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

TEST(PackedMerge, KernelMatchesDenseU16xU16) {
  run_packed_kernel_parity<std::uint16_t, std::uint16_t>(301, 900, 900);
  run_packed_kernel_parity<std::uint16_t, std::uint16_t>(302, 0xFFFF, 0xFFFF);
}

TEST(PackedMerge, KernelMatchesDenseMixedWidths) {
  // u16 x u32 both ways, and u32 x u32 with near-boundary counts whose
  // products stress the no-wrap claim (0xFFFFFFFF^2 < 2^64).
  run_packed_kernel_parity<std::uint16_t, std::uint32_t>(311, 0xFFFF,
                                                         0xFFFFFFFFull);
  run_packed_kernel_parity<std::uint32_t, std::uint16_t>(312, 0xFFFFFFFFull,
                                                         0xFFFF);
  run_packed_kernel_parity<std::uint32_t, std::uint32_t>(313, 0xFFFFFFFFull,
                                                         0xFFFFFFFFull);
}

/// merge_halves over narrow flat halves (the packed merge) and over the
/// same rows as dense tables (the dense merge_bucket) must reach the same
/// sink — `wide_escape` poisons the plus half with an unpackable key
/// first, so the flat run exercises the dense-fallback dispatch instead.
void run_merge_halves_parity(std::uint64_t seed, bool wide_escape) {
  std::vector<TableEntry> prows, mrows;
  {
    MergeCx f(seed);
    Rng rng(seed + 1);
    for (const VertexId v : {3u, 5u, 9u, 11u, 20u}) {
      auto [pd, pp] = merge_bucket_rows<std::uint16_t>(f.chi, v, 900, rng);
      auto [md, mp] = merge_bucket_rows<std::uint16_t>(f.chi, v, 900, rng);
      prows.insert(prows.end(), pd.begin(), pd.end());
      mrows.insert(mrows.end(), md.begin(), md.end());
    }
    if (wide_escape) {
      TableKey k;
      k.v[0] = 3;
      k.v[1] = 4;
      k.v[2] = 6;  // unpackable: drives the flat sink wide
      k.sig = 0x11;
      prows.push_back({k, 2});
    }
  }
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {1, 1};
  std::array<std::vector<std::pair<std::array<std::uint64_t, 5>, Count>>, 2>
      results;
  for (const bool packed : {false, true}) {
    MergeCx f(seed);
    auto table = [&](const std::vector<TableEntry>& rows) {
      if (!packed) return ProjTable::from_flat(2, std::vector(rows));
      // Born sorted: bucket w holds the rows ending at w.
      SortedBuckets buckets;
      FlatRows scratch;
      for (VertexId w = 0; w < f.g.num_vertices(); ++w) {
        scratch.reset();
        for (const TableEntry& e : rows) {
          if (e.key.v[1] == w) scratch.append(e.key, e.cnt);
        }
        buckets.close(scratch);
      }
      return ProjTable::from_buckets(2, std::move(buckets));
    };
    ProjTable plus = table(prows);
    ProjTable minus = table(mrows);
    if (packed && !wide_escape) {
      ASSERT_NE(plus.flat_storage(), nullptr);
      ASSERT_NE(minus.flat_storage(), nullptr);
    }
    AccumMap sink(16, true);
    merge_halves(f.cx, plus, minus, spec, sink);
    auto& out = results[packed ? 1 : 0];
    sink.for_each([&](const TableKey& k, Count c) {
      if (c == 0) return;  // the dense merge adds zero products too
      out.emplace_back(
          std::array<std::uint64_t, 5>{k.v[0], k.v[1], k.v[2], k.v[3],
                                       k.sig},
          c);
    });
    std::sort(out.begin(), out.end());
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
  // Narrow path rows on and off: the distributed engine's per-coloring
  // counts equal the shared engine's either way.
  const CsrGraph g = erdos_renyi(40, 170, 15);
  const QueryGraph q = q_glet2();
  const Plan plan = make_plan(q);
  std::vector<Coloring> lanes;
  for (int l = 0; l < 8; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), 1200 + l);
  }
  const ColoringBatch batch(lanes);
  for (const bool compress : {true, false}) {
    ExecOptions opts;
    opts.lane_compress = compress;
    CountingSession session(g, q, plan, opts);
    const ExecStats shared = session.count_colorful(batch);
    const DistStats dist =
        run_plan_distributed(g, plan.tree, batch, /*ranks=*/3, opts);
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(dist.colorful_lane[l], shared.colorful_lane[l])
          << "lane_compress " << compress << " lane " << l;
    }
    EXPECT_EQ(dist.lanes.rows_packed, shared.lanes.rows_packed) << compress;
    if (!compress) EXPECT_EQ(dist.lanes.rows_packed, 0u);
  }
}

}  // namespace
}  // namespace ccbt
