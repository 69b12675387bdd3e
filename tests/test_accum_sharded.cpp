// The two emission paths of a B > 1 sink (table/flat_rows.hpp) — the
// probe path's global combining-cache appends, taken when prepare_emit
// gets no vertex domain, and the v1-cut sharded bulk emission a domain
// selects — must be interchangeable: identical sealed rows bit for bit
// across every batch width and payload width, through mid-phase
// u16 -> u32 -> wide escalation, and through the run-bulk API and its
// post-escalation fallback. So must the sharded path's two row formats,
// dense rows and the sparse records a phase flips to at
// sparse_flip_rows(), lane for lane over whole counting runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
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

/// Restore the process-wide dense-to-sparse flip threshold however a
/// test exits.
struct FlipGuard {
  std::size_t saved = sparse_flip_rows();
  ~FlipGuard() { set_sparse_flip_rows(saved); }
};

constexpr std::size_t kNeverFlip = std::numeric_limits<std::size_t>::max();

template <int B>
using RowSpec = std::pair<TableKey, typename LaneOps<B>::Vec>;

/// Append `rows` round-robin across `parts` sinks prepared with
/// `prep_domain` (0 = the probe path), then absorb into one — the
/// per-thread reduction shape. Sharded sinks absorb shard-wise.
template <int B>
FlatRowsT<B> build_sink(const std::vector<RowSpec<B>>& rows, int parts,
                        VertexId prep_domain) {
  std::vector<FlatRowsT<B>> sinks(parts);
  for (auto& s : sinks) s.prepare_emit(prep_domain);
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

/// The core property: both paths, fed the same emission stream and
/// sealed the same way, hold the same deduped rows, escalation mode and
/// scan stats bit for bit. Pre-sort row order may differ (shard blocks
/// vs first-emission order) — the seal's sort + dedup erases exactly
/// that freedom and nothing else.
template <int B>
void expect_engine_parity(const std::vector<RowSpec<B>>& rows, int slot,
                          VertexId domain, int parts = 4) {
  FlatRowsT<B> probe = build_sink<B>(rows, parts, 0);
  FlatRowsT<B> shard = build_sink<B>(rows, parts, domain);
  ASSERT_FALSE(probe.sharded());
  const bool p_ok = probe.sort_by_slot(slot, domain);
  const bool s_ok = shard.sort_by_slot(slot, domain);
  ASSERT_EQ(p_ok, s_ok);
  if (!p_ok) return;
  const FlatStats sp = probe.merge_duplicates();
  const FlatStats ss = shard.merge_duplicates();
  EXPECT_EQ(sp.rows, ss.rows);
  EXPECT_EQ(sp.lanes_occupied, ss.lanes_occupied);
  EXPECT_EQ(sp.max_count, ss.max_count);
  expect_same_sink(probe, shard);
}

/// Same-v1 burst stream with in-burst and cross-burst duplicates — the
/// extend loop's emission shape, the one the shard caches are cut for.
template <int B>
std::vector<RowSpec<B>> burst_stream(Rng& rng, int bursts, int burst_len,
                                     VertexId domain, Count max_count) {
  std::vector<RowSpec<B>> rows;
  rows.reserve(static_cast<std::size_t>(bursts) * burst_len);
  for (int b = 0; b < bursts; ++b) {
    // Revisit a v1 with probability ~1/2 so later bursts fold into
    // rows another burst (possibly in another part) already emitted.
    const auto v1 = static_cast<VertexId>(rng.below(domain / 2) * 2 %
                                          domain);
    for (int i = 0; i < burst_len; ++i) {
      TableKey k;
      k.v[0] = static_cast<VertexId>(rng.below(domain));
      k.v[1] = v1;
      k.sig = static_cast<Signature>(rng.below(32));
      auto c = LaneOps<B>::zero();
      LaneOps<B>::set_lane(c, static_cast<int>(rng.below(B)),
                           1 + rng.below(max_count));
      rows.push_back({k, c});
      if (i % 4 == 3) rows.push_back(rows.back());  // in-burst dup
    }
  }
  return rows;
}

template <int B>
void run_parity_suite(Count max_count) {
  const VertexId domain = 50'000;
  for (const int slot : {0, 1}) {
    Rng rng(900 + slot);
    expect_engine_parity<B>(
        burst_stream<B>(rng, 400, 24, domain, max_count), slot, domain);
    // Tiny table: the sharded seal's hybrid cutover flattens and sorts
    // globally here; parity must not depend on that choice.
    expect_engine_parity<B>(burst_stream<B>(rng, 8, 6, domain, max_count),
                            slot, domain);
    // Dup-heavy 24-key universe: every shard but one empty, long
    // combining-cache hit chains in the occupied one.
    expect_engine_parity<B>(burst_stream<B>(rng, 300, 20, 24, max_count),
                            slot, 24);
  }
}

TEST(AccumSharded, ParityU16B2) { run_parity_suite<2>(9); }
TEST(AccumSharded, ParityU16B4) { run_parity_suite<4>(9); }
TEST(AccumSharded, ParityU16B8) { run_parity_suite<8>(9); }
// Counts near the u16 folding edge: cache sums overflow into duplicate
// pushes on the probe path and per-shard pushes on the sharded one.
TEST(AccumSharded, ParityFoldOverflowB8) { run_parity_suite<8>(60'000); }

template <int B>
void run_escalation_suite(Count big) {
  // A u16 burst stream with occasional oversized counts spliced in:
  // the sharded sink must unshard mid-phase, carry every shard row
  // into the escalated buffer, and keep folding — ending bit-identical
  // to the probe path which escalated at the same emission.
  const VertexId domain = 50'000;
  Rng rng(4242);
  std::vector<RowSpec<B>> rows =
      burst_stream<B>(rng, 300, 24, domain, 9);
  for (std::size_t i = rows.size() / 3; i < rows.size();
       i += rows.size() / 5) {
    auto c = LaneOps<B>::zero();
    LaneOps<B>::set_lane(c, static_cast<int>(i % B), big);
    rows[i].second = c;
  }
  for (const int slot : {0, 1}) {
    expect_engine_parity<B>(rows, slot, domain);
  }
}

TEST(AccumSharded, MidPhaseEscalateToU32B8) {
  run_escalation_suite<8>(Count{1} << 20);
}
TEST(AccumSharded, MidPhaseEscalateToWideB8) {
  run_escalation_suite<8>(Count{1} << 40);
}
TEST(AccumSharded, MidPhaseEscalateToU32B2) {
  run_escalation_suite<2>(Count{1} << 20);
}

TEST(AccumSharded, EscalationUnshards) {
  constexpr int B = 8;
  const VertexId domain = 10'000;
  FlatRowsT<B> t;
  t.prepare_emit(domain);
  ASSERT_TRUE(t.sharded());
  TableKey k;
  k.v[0] = 7;
  k.v[1] = 9;
  k.sig = 3;
  auto c = LaneOps<B>::zero();
  LaneOps<B>::set_lane(c, 0, 5);
  t.append(k, c);
  EXPECT_TRUE(t.sharded());
  LaneOps<B>::set_lane(c, 0, Count{1} << 20);
  t.append(k, c);
  EXPECT_FALSE(t.sharded());
  EXPECT_EQ(t.mode(), FlatRowsT<B>::Mode::kU32);
  ASSERT_TRUE(t.sort_by_slot(1, domain));
  t.merge_duplicates();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.rows_u32()[0].c[0], (Count{1} << 20) + 5);
}

constexpr std::uint64_t pack28(std::uint32_t v0, std::uint32_t v1,
                               std::uint8_t sig) {
  return (std::uint64_t{v0} << 36) | (std::uint64_t{v1} << 8) | sig;
}

/// Replay one burst through the run-bulk API when the handle is valid
/// (sharded sink) and through per-row probe appends when it is not —
/// exactly the extend loop's emission switch.
template <int B>
void emit_burst(FlatRowsT<B>& t, VertexId v1, Rng& rng, int len,
                VertexId domain) {
  const auto run = t.run_u16(v1, static_cast<std::size_t>(len));
  PackedFlatRowT<B, std::uint16_t> src;
  for (int l = 0; l < B; ++l) {
    src.c[l] = static_cast<std::uint16_t>(1 + rng.below(7));
  }
  for (int i = 0; i < len; ++i) {
    const auto v0 = static_cast<std::uint32_t>(rng.below(domain));
    const std::uint64_t k =
        pack28(v0, v1, static_cast<std::uint8_t>(v0 & 0x1F));
    const auto m = static_cast<LaneMask>(1 + rng.below((1u << B) - 1));
    if (run.valid()) {
      t.run_append_u16(run, k, src, m);
    } else {
      t.append_masked_u16(k, src, m);
    }
  }
}

TEST(AccumSharded, RunBulkMatchesPerRow) {
  constexpr int B = 8;
  const VertexId domain = 50'000;
  FlatRowsT<B> probe;
  FlatRowsT<B> shard;
  probe.prepare_emit(0);
  shard.prepare_emit(domain);
  ASSERT_FALSE(probe.run_u16(1, 8).valid());
  for (FlatRowsT<B>* t : {&probe, &shard}) {
    Rng rng(777);  // same stream into both sinks
    for (int b = 0; b < 500; ++b) {
      const auto v1 = static_cast<VertexId>(rng.below(domain));
      emit_burst(*t, v1, rng, 32, domain);
    }
  }
  ASSERT_TRUE(probe.sort_by_slot(1, domain));
  ASSERT_TRUE(shard.sort_by_slot(1, domain));
  probe.merge_duplicates();
  shard.merge_duplicates();
  expect_same_sink(probe, shard);
}

TEST(AccumSharded, RunHandleInvalidAfterEscalation) {
  // A generic append that escalates the sink invalidates run handles:
  // run_u16 must come back invalid afterwards and the per-row fallback
  // must land every later emission, with exact totals.
  constexpr int B = 8;
  const VertexId domain = 50'000;
  FlatRowsT<B> probe;
  FlatRowsT<B> shard;
  probe.prepare_emit(0);
  shard.prepare_emit(domain);
  for (FlatRowsT<B>* t : {&probe, &shard}) {
    Rng rng(778);
    for (int b = 0; b < 200; ++b) {
      emit_burst(*t, static_cast<VertexId>(rng.below(domain)), rng, 32,
                 domain);
    }
    TableKey k;  // oversized count: escalates (and unshards) the sink
    k.v[0] = 11;
    k.v[1] = 13;
    k.sig = 1;
    auto c = LaneOps<B>::zero();
    LaneOps<B>::set_lane(c, 2, Count{1} << 20);
    t->append(k, c);
    ASSERT_FALSE(t->sharded());
    ASSERT_FALSE(t->run_u16(13, 8).valid());
    for (int b = 0; b < 200; ++b) {  // post-escalation fallback path
      emit_burst(*t, static_cast<VertexId>(rng.below(domain)), rng, 32,
                 domain);
    }
  }
  ASSERT_TRUE(probe.sort_by_slot(1, domain));
  ASSERT_TRUE(shard.sort_by_slot(1, domain));
  probe.merge_duplicates();
  shard.merge_duplicates();
  expect_same_sink(probe, shard);
}

TEST(AccumSharded, EnsureFlatPreservesRowsUnsealed) {
  // node_join consumes unsealed tables by index; ensure_flat must hand
  // it every sharded row (order free) without touching the counts.
  constexpr int B = 8;
  const VertexId domain = 50'000;
  FlatRowsT<B> t;
  t.prepare_emit(domain);
  Rng rng(55);
  const auto rows = burst_stream<B>(rng, 200, 16, domain, 9);
  for (const auto& r : rows) t.append(r.first, r.second);
  const std::size_t n = t.size();
  ASSERT_TRUE(t.sharded());
  t.ensure_flat();
  EXPECT_FALSE(t.sharded());
  EXPECT_EQ(t.size(), n);
  ASSERT_EQ(t.mode(), FlatRowsT<B>::Mode::kU16);
  EXPECT_EQ(t.rows_u16().size(), n);
  // Still sealable afterwards, to the same table the probe path ends
  // at (ensure_flat dropped the caches; seal re-sorts from scratch).
  FlatRowsT<B> probe;
  probe.prepare_emit(0);
  for (const auto& r : rows) probe.append(r.first, r.second);
  ASSERT_TRUE(t.sort_by_slot(1, domain));
  ASSERT_TRUE(probe.sort_by_slot(1, domain));
  t.merge_duplicates();
  probe.merge_duplicates();
  expect_same_sink(probe, t);
}

TEST(AccumSharded, PrepareEmitPicksPathFromSink) {
  FlipGuard guard;
  const VertexId domain = 10'000;
  // A usable vertex domain shards; none (0, or one the 28-bit packed
  // field cannot hold) takes the probe path.
  for (const VertexId d : {VertexId{0}, kPacked28NoVertex}) {
    FlatRowsT<8> t;
    t.prepare_emit(d);
    EXPECT_FALSE(t.sharded()) << d;
    EXPECT_FALSE(t.run_u16(1, 8).valid()) << d;
  }
  {
    FlatRowsT<8> t;
    t.prepare_emit(domain);
    EXPECT_TRUE(t.sharded());
    EXPECT_FALSE(t.sparse());  // default threshold: starts dense
  }
  // Threshold 0: a fresh sharded sink is sparse before it emits; the
  // probe path never is.
  set_sparse_flip_rows(0);
  {
    FlatRowsT<8> t;
    t.prepare_emit(domain);
    EXPECT_TRUE(t.sharded());
    EXPECT_TRUE(t.sparse());
    FlatRowsT<8> p;
    p.prepare_emit(0);
    EXPECT_FALSE(p.sparse());
  }
  // A sink already holding escalated rows stays on the probe path.
  {
    FlatRowsT<8> t;
    TableKey k;
    k.v[0] = 1;
    k.v[1] = 2;
    k.sig = 1;
    auto c = LaneOps<8>::zero();
    LaneOps<8>::set_lane(c, 0, Count{1} << 20);
    t.append(k, c);
    ASSERT_EQ(t.mode(), FlatRowsT<8>::Mode::kU32);
    t.prepare_emit(domain);
    EXPECT_FALSE(t.sharded());
    EXPECT_FALSE(t.sparse());
  }
}

TEST(AccumSharded, TelemetryCountsShardedPhase) {
  constexpr int B = 8;
  const VertexId domain = 50'000;
  FlatRowsT<B> t;
  t.prepare_emit(domain);
  Rng rng(99);
  for (int b = 0; b < 100; ++b) {
    emit_burst(t, static_cast<VertexId>(rng.below(domain)), rng, 32,
               domain);
  }
  AccumTelemetry tel;
  t.collect_telemetry(tel);
  EXPECT_EQ(tel.phases, 1u);
  EXPECT_EQ(tel.sharded_phases, 1u);
  EXPECT_EQ(tel.rows, t.size());
  EXPECT_GT(tel.run_emits, 0u);
  ASSERT_GT(tel.shard_slots, 0u);
  EXPECT_LE(tel.shards_occupied, tel.shard_slots);
  EXPECT_GT(tel.shard_occupancy(), 0.0);
  EXPECT_LE(tel.shard_occupancy(), 1.0);
}

// ---------------------------------------------------------------------
// Sparse emission records: variable-length records — packed key +
// occupancy byte + occupied u16 counts only — must seal to tables
// bit-identical to dense fixed-stride rows, across batch widths,
// through escalation, absorb, run-bulk, and the unsealed-access routes
// node_join takes. A flip threshold of 0 makes a sharded sink sparse
// from its first emission, SIZE_MAX keeps it dense (the oracle).
// ---------------------------------------------------------------------

/// Dense-vs-sparse twin sharded sinks fed the same stream, sealed the
/// same way, must agree bit for bit — mode, stats and rows.
template <int B>
void expect_format_parity(const std::vector<RowSpec<B>>& rows, int slot,
                          VertexId domain, int parts = 4) {
  FlipGuard guard;
  set_sparse_flip_rows(kNeverFlip);
  FlatRowsT<B> dense = build_sink<B>(rows, parts, domain);
  set_sparse_flip_rows(0);
  FlatRowsT<B> sparse = build_sink<B>(rows, parts, domain);
  const bool d_ok = dense.sort_by_slot(slot, domain);
  const bool s_ok = sparse.sort_by_slot(slot, domain);
  ASSERT_EQ(d_ok, s_ok);
  if (!d_ok) return;
  const FlatStats sd = dense.merge_duplicates();
  const FlatStats ss = sparse.merge_duplicates();
  EXPECT_EQ(sd.rows, ss.rows);
  EXPECT_EQ(sd.lanes_occupied, ss.lanes_occupied);
  EXPECT_EQ(sd.max_count, ss.max_count);
  expect_same_sink(dense, sparse);
}

template <int B>
void run_format_parity_suite(Count max_count) {
  const VertexId domain = 50'000;
  for (const int slot : {0, 1}) {
    Rng rng(1700 + slot);
    expect_format_parity<B>(
        burst_stream<B>(rng, 400, 24, domain, max_count), slot, domain);
    // Tiny table: the sparse seal decodes and takes the dense route
    // below its per-shard cutover; parity must not depend on that.
    expect_format_parity<B>(burst_stream<B>(rng, 8, 6, domain, max_count),
                            slot, domain);
    // Dup-heavy 24-key universe: nearly every emission folds in a
    // combining cache, sparse record reuse at its hottest.
    expect_format_parity<B>(burst_stream<B>(rng, 300, 20, 24, max_count),
                            slot, 24);
  }
  // Above the per-shard sparse seal cutover (64 x 4 x 512 rows), so the
  // slot-1 seal sorts (key, offset) pairs shard by shard.
  Rng rng(1800);
  expect_format_parity<B>(
      burst_stream<B>(rng, 4000, 48, domain, max_count), 1, domain);
}

TEST(AccumSharded, SparseFormatParityU16B2) {
  run_format_parity_suite<2>(9);
}
TEST(AccumSharded, SparseFormatParityU16B4) {
  run_format_parity_suite<4>(9);
}
TEST(AccumSharded, SparseFormatParityU16B8) {
  run_format_parity_suite<8>(9);
}
// Counts near the u16 folding edge: cache sums overflow into duplicate
// sparse records, merged only at the seal.
TEST(AccumSharded, SparseFormatParityFoldOverflowB8) {
  run_format_parity_suite<8>(60'000);
}

template <int B>
void run_sparse_escalation_suite(Count big) {
  // Oversized counts spliced into a u16 burst stream: the sparse sink
  // must decode itself back to flat rows mid-phase (unsparse), escalate
  // with the dense machinery, and end bit-identical to the dense twin
  // that escalated at the same emission.
  const VertexId domain = 50'000;
  Rng rng(6161);
  std::vector<RowSpec<B>> rows = burst_stream<B>(rng, 300, 24, domain, 9);
  for (std::size_t i = rows.size() / 3; i < rows.size();
       i += rows.size() / 5) {
    auto c = LaneOps<B>::zero();
    LaneOps<B>::set_lane(c, static_cast<int>(i % B), big);
    rows[i].second = c;
  }
  for (const int slot : {0, 1}) {
    expect_format_parity<B>(rows, slot, domain);
  }
}

TEST(AccumSharded, SparseEscalateToU32B8) {
  run_sparse_escalation_suite<8>(Count{1} << 20);
}
TEST(AccumSharded, SparseEscalateToWideB8) {
  run_sparse_escalation_suite<8>(Count{1} << 40);
}
TEST(AccumSharded, SparseEscalateToU32B2) {
  run_sparse_escalation_suite<2>(Count{1} << 20);
}

TEST(AccumSharded, SparseRunBulkMatchesDense) {
  // The extend loop's emission switch over run handles, sparse vs
  // dense: same records after the seal.
  constexpr int B = 8;
  const VertexId domain = 50'000;
  FlipGuard guard;
  FlatRowsT<B> dense;
  FlatRowsT<B> sparse;
  set_sparse_flip_rows(kNeverFlip);
  dense.prepare_emit(domain);
  set_sparse_flip_rows(0);
  sparse.prepare_emit(domain);
  EXPECT_FALSE(dense.sparse());
  EXPECT_TRUE(sparse.sparse());
  for (FlatRowsT<B>* t : {&dense, &sparse}) {
    Rng rng(787);  // same stream into both sinks
    for (int b = 0; b < 500; ++b) {
      emit_burst(*t, static_cast<VertexId>(rng.below(domain)), rng, 32,
                 domain);
    }
  }
  ASSERT_TRUE(dense.sort_by_slot(1, domain));
  ASSERT_TRUE(sparse.sort_by_slot(1, domain));
  dense.merge_duplicates();
  sparse.merge_duplicates();
  expect_same_sink(dense, sparse);
}

TEST(AccumSharded, SparseAbsorbMixedFormats) {
  // Per-thread sinks may disagree on format (one crossed the flip, one
  // did not): absorb must reconcile and seal to the all-dense result,
  // in every pairing.
  constexpr int B = 8;
  const VertexId domain = 50'000;
  FlipGuard guard;
  Rng rng0(321);
  const auto rows = burst_stream<B>(rng0, 300, 16, domain, 9);
  auto build_pair = [&](std::size_t flip_a, std::size_t flip_b) {
    std::array<FlatRowsT<B>, 2> s;
    set_sparse_flip_rows(flip_a);
    s[0].prepare_emit(domain);
    set_sparse_flip_rows(flip_b);
    s[1].prepare_emit(domain);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      s[i % 2].append(rows[i].first, rows[i].second);
    }
    s[0].absorb(std::move(s[1]));
    return std::move(s[0]);
  };
  FlatRowsT<B> oracle = build_pair(kNeverFlip, kNeverFlip);
  ASSERT_TRUE(oracle.sort_by_slot(1, domain));
  oracle.merge_duplicates();
  for (const auto& [fa, fb] : {std::pair{std::size_t{0}, std::size_t{0}},
                               std::pair{std::size_t{0}, kNeverFlip},
                               std::pair{kNeverFlip, std::size_t{0}}}) {
    FlatRowsT<B> t = build_pair(fa, fb);
    ASSERT_TRUE(t.sort_by_slot(1, domain));
    t.merge_duplicates();
    expect_same_sink(oracle, t);
  }
}

TEST(AccumSharded, SparseEnsureFlatRoutes) {
  // Regression for the four unsealed-access SEGFAULT routes fixed via
  // ensure_flat/ensure_row_access: node_join consumes unsealed tables by
  // index, so a sparse sink must decode to flat rows on demand — size
  // preserved, counts untouched, still sealable.
  constexpr int B = 8;
  const VertexId domain = 50'000;
  FlipGuard guard;
  set_sparse_flip_rows(0);
  FlatRowsT<B> t;
  t.prepare_emit(domain);
  Rng rng(56);
  const auto rows = burst_stream<B>(rng, 200, 16, domain, 9);
  for (const auto& r : rows) t.append(r.first, r.second);
  const std::size_t n = t.size();
  ASSERT_TRUE(t.sparse());
  t.ensure_flat();
  EXPECT_FALSE(t.sparse());
  EXPECT_FALSE(t.sharded());
  EXPECT_EQ(t.size(), n);
  ASSERT_EQ(t.mode(), FlatRowsT<B>::Mode::kU16);
  // The route that crashed: indexed row access while unsealed.
  ASSERT_EQ(t.rows_u16().size(), n);
  std::uint64_t sum = 0;
  for (const auto& r : t.rows_u16()) sum += r.c[0];
  (void)sum;
  // Still sealable afterwards, to the same table a dense sink ends at
  // (ensure_flat dropped the caches; seal re-sorts from scratch).
  set_sparse_flip_rows(kNeverFlip);
  FlatRowsT<B> dense;
  dense.prepare_emit(domain);
  for (const auto& r : rows) dense.append(r.first, r.second);
  ASSERT_TRUE(t.sort_by_slot(1, domain));
  ASSERT_TRUE(dense.sort_by_slot(1, domain));
  t.merge_duplicates();
  dense.merge_duplicates();
  expect_same_sink(dense, t);
}

TEST(AccumSharded, AdaptiveFlipMatchesDense) {
  // The mid-phase dense-to-sparse flip: arm a tiny threshold, feed a
  // sharded sink past it, and the table — rows re-encoded at the flip
  // plus records emitted after it — must seal bit-identical to a
  // never-flipping twin (and the sink must actually have flipped).
  FlipGuard guard;
  const VertexId domain = 50'000;
  Rng rng(4242);
  const auto rows = burst_stream<8>(rng, 400, 24, domain, 9);
  set_sparse_flip_rows(kNeverFlip);
  FlatRowsT<8> dense = build_sink<8>(rows, 1, domain);
  set_sparse_flip_rows(512);
  FlatRowsT<8> flipped = build_sink<8>(rows, 1, domain);
  EXPECT_TRUE(flipped.sparse());
  ASSERT_TRUE(dense.sort_by_slot(1, domain));
  ASSERT_TRUE(flipped.sort_by_slot(1, domain));
  dense.merge_duplicates();
  flipped.merge_duplicates();
  expect_same_sink(dense, flipped);

  // Below the threshold the phase must stay dense end to end.
  set_sparse_flip_rows(std::size_t{1} << 30);
  FlatRowsT<8> small = build_sink<8>(rows, 1, domain);
  EXPECT_FALSE(small.sparse());
  ASSERT_TRUE(small.sort_by_slot(1, domain));
  small.merge_duplicates();
  expect_same_sink(dense, small);
}

TEST(AccumSharded, SparseFlipRunsAgreeLaneForLane) {
  // Whole-pipeline cross-check: per-lane colorful counts can't depend
  // on the row format, and the sparse run must actually exercise the
  // sparse path (sparse phases in telemetry).
  FlipGuard guard;
  const CsrGraph g = erdos_renyi(60, 260, 22);
  std::vector<std::uint64_t> seeds{8400, 8401, 8402, 8403,
                                   8404, 8405, 8406, 8407};
  for (const QueryGraph& q : {q_glet2(), q_youtube(), q_cycle(5)}) {
    const Plan plan = make_plan(q);
    set_sparse_flip_rows(kNeverFlip);
    CountingSession sd(g, q, plan, ExecOptions{});
    const ExecStats a = sd.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    set_sparse_flip_rows(0);
    CountingSession ss(g, q, plan, ExecOptions{});
    const ExecStats b = ss.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(a.colorful_lane[l], b.colorful_lane[l])
          << q.name() << " lane " << l;
    }
    EXPECT_EQ(a.accum.sparse_phases, 0u) << q.name();
    EXPECT_GT(b.accum.sparse_phases, 0u) << q.name();
  }
}

}  // namespace
}  // namespace ccbt
