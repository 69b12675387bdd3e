#pragma once
// Projection tables (Section 4.2): a synopsis of the colorful matches of a
// subquery, keyed by the images of its boundary nodes (plus tracked
// vertices during DB path construction) and the color signature.
//
// Lifecycle: the engine's path primitives build their tables born sorted
// (from_buckets, flat_rows.hpp) at every batch width: already sealed kByV1
// with a bucket index over the frontier slot. The distributed engine
// builds its path shards the same way, bucket by bucket from each rank's
// delivered rows. Hashed sinks (merge sinks, aggregate) adopt their rows
// from an AccumMap (from_map), and the distributed engine's other shards
// (aggregates, re-homed and transposed tables, checkpoint restores) from
// transport rows (from_flat). Sealing with a known key domain (the data
// graph's vertex count) builds a CSR-style bucket index over the grouping
// slot, so group(slot, v) is a single offset lookup instead of two binary
// searches. See README.md in this directory for the memory layout, the
// lane dimension, and the threading model.
//
// The table is parameterized on the batch width B: entry counts are
// per-lane vectors (see table_key.hpp). Sorting, grouping and the bucket
// index depend only on keys, so all widths share one implementation;
// `ProjTable` aliases the scalar B = 1 instantiation.
//
// A table holds its rows in one of two layouts:
//   * narrow flat rows (FlatRowsT: packed u64 key, u16 or u32 count
//     vector). Only a non-empty born-sorted table is narrow, and only
//     while it keeps its kByV1 order; keys that do not pack and u64-range
//     counts make the build dense instead;
//   * dense entries (full key, u64[B] counts). Every other table is
//     dense. A seal into another order re-sorts in the dense layout, so
//     every table sealed kByV0 — every stored table and transpose — is
//     dense.
// Readers either take the dense span fast path (entries()/group(), valid
// while the table is dense) or go through the layout-independent
// accessors (row_at, for_each_entry, group_expanded), which expand narrow
// rows on the fly.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ccbt/table/accum_map.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/lane_simd.hpp"
#include "ccbt/table/table_key.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

/// Sort orders used by the join procedures.
enum class SortOrder : std::uint8_t {
  kUnsorted,
  kByV0,  // group by slot 0 (child-table lookups by first boundary)
  kByV1,  // group by slot 1 (frontier-grouped extensions, merge joins)
};

/// The key slot a sort order groups by (-1 for kUnsorted).
inline constexpr int group_slot(SortOrder order) {
  switch (order) {
    case SortOrder::kByV0: return 0;
    case SortOrder::kByV1: return 1;
    case SortOrder::kUnsorted: break;
  }
  return -1;
}

namespace detail {

template <typename E>
bool less_by_v0(const E& a, const E& b) {
  if (a.key.v[0] != b.key.v[0]) return a.key.v[0] < b.key.v[0];
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

template <typename E>
bool less_by_v1(const E& a, const E& b) {
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  return less_by_v0(a, b);
}

/// Tie-break inside one slot-0 bucket (slot 0 equal by construction).
template <typename E>
bool less_tail_v0(const E& a, const E& b) {
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

/// Tie-break inside one slot-1 bucket (slot 1 equal by construction).
template <typename E>
bool less_tail_v1(const E& a, const E& b) {
  if (a.key.v[0] != b.key.v[0]) return a.key.v[0] < b.key.v[0];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

/// Whether a counting partition over `domain` buckets pays off for n
/// entries: the offsets array must not dominate the sort itself. Applies
/// to explicit domains too — a tiny late-stage table on a huge graph must
/// not pay O(num_vertices) per seal.
inline bool domain_worthwhile(std::size_t n, VertexId domain) {
  return domain > 0 &&
         std::uint64_t{domain} <=
             8 * std::uint64_t{std::max<std::size_t>(n, 1)} + 1024;
}

}  // namespace detail

template <int B>
class ProjTableT {
 public:
  using Entry = TableEntryT<B>;
  using Vec = typename LaneOps<B>::Vec;

  ProjTableT() = default;

  /// arity = number of meaningful leading vertex slots (0..4).
  explicit ProjTableT(int arity) : arity_(arity) {}

  static ProjTableT from_map(int arity, AccumMapT<B>&& map) {
    ProjTableT t(arity);
    t.entries_ = map.take_entries();
    return t;
  }

  /// Adopt rows that may contain duplicate keys (the distributed engine's
  /// non-path shards, filled from transport inboxes): counts of equal
  /// keys are summed by the next seal(). Until then the table behaves like a
  /// multiset — joins and totals are bilinear, so duplicate rows are
  /// semantically identical to their merged sum.
  static ProjTableT from_flat(int arity, std::vector<Entry>&& rows) {
    ProjTableT t(arity);
    t.entries_ = std::move(rows);
    t.dedup_pending_ = !t.entries_.empty();
    return t;
  }

  /// Adopt a born-sorted table: one deduplicated bucket per vertex of
  /// [0, buckets.buckets()), already in kByV1 order, so the table is
  /// sealed kByV1 with its bucket index on arrival. Non-empty narrow rows
  /// stay narrow; layout() is the bucket build's exact stats.
  static ProjTableT from_buckets(int arity, SortedBucketsT<B>&& buckets) {
    ProjTableT t(arity);
    t.bucket_off_ = buckets.offsets();
    t.index_slot_ = 1;
    t.domain_ = static_cast<VertexId>(buckets.buckets());
    t.order_ = SortOrder::kByV1;
    const FlatStats& st = buckets.stats();
    FlatRowsT<B> rows = buckets.take_rows();
    const bool narrow = rows.narrow() && !rows.empty();
    if (narrow || B > 1) {
      t.layout_.rows = st.rows;
      t.layout_.lane_slots = st.rows * static_cast<std::uint64_t>(B);
      t.layout_.lanes_occupied = st.lanes_occupied;
      t.layout_.max_count = st.max_count;
      t.layout_.width = narrow ? rows.width()
                               : choose_payload_width(st.max_count);
      t.layout_.packed = narrow;
    }
    if (narrow) {
      t.pflat_ = std::move(rows);
      t.packed_flat_ = true;
    } else {
      t.entries_ = rows.take_wide();
    }
    return t;
  }

  /// Whether rows with duplicate keys may still be present (cleared by
  /// the first sorting seal).
  bool dedup_pending() const { return dedup_pending_; }

  int arity() const { return arity_; }
  std::size_t size() const {
    return packed_flat_ ? pflat_.size() : entries_.size();
  }
  bool empty() const { return size() == 0; }

  /// Dense row span. Throws when the rows are narrow (use the
  /// layout-independent accessors below).
  std::span<const Entry> entries() const {
    if (packed_flat_) {
      throw Error("ProjTable::entries(): table is in the narrow flat layout");
    }
    return entries_;
  }

  // ---------------------------------------------- layout-independent API

  /// Whether rows live in the narrow flat layout (born-sorted tables).
  bool packed_flat() const { return packed_flat_; }

  /// The narrow flat storage itself, or nullptr when dense. The extend
  /// fast path reads a u16 table's raw rows without expanding them to
  /// dense entries.
  const FlatRowsT<B>* flat_storage() const {
    return packed_flat_ ? &pflat_ : nullptr;
  }

  /// The lane occupancy of the table's rows, telemetry only (no layout
  /// decision reads it). One rule sets it: a born-sorted table takes its
  /// bucket build's stats; at B > 1 a seal that sorts scans every row
  /// once they are deduplicated; a seal that finds the table already in
  /// its order scans nothing and keeps what the table has. Rows change
  /// in place only through push_unchecked, which clears layout() and
  /// makes the next seal sort, so layout() is exact for every sealed
  /// B > 1 table. A dense B = 1 table built without narrow rows is never
  /// scanned (rows == 0).
  const LaneLayoutInfo& layout() const { return layout_; }

  TableKey key_at(std::size_t i) const {
    return packed_flat_ ? pflat_.key_at(i) : entries_[i].key;
  }

  /// Row i as a dense entry: a reference into the table when dense, a
  /// reference to `tmp` (filled by expanding the narrow row) otherwise.
  const Entry& row_at(std::size_t i, Entry& tmp) const {
    if (!packed_flat_) return entries_[i];
    pflat_.row(i, tmp);
    return tmp;
  }

  /// Visit every row as a dense entry, in table order.
  template <typename F>
  void for_each_entry(F&& f) const {
    if (packed_flat_) {
      pflat_.for_each_dense(f);
      return;
    }
    for (const Entry& e : entries_) f(e);
  }

  /// Index range of the group with slot `slot` equal to v (same contract
  /// as group(), but layout independent).
  std::pair<std::size_t, std::size_t> group_span(int slot, VertexId v) const {
    if (slot == index_slot_) {
      if (v >= domain_) return {0, 0};
      return {bucket_off_[v], bucket_off_[v + 1]};
    }
    return group_span_by_search(slot, v);
  }

  /// group() for either layout: the raw span when dense, the bucket
  /// expanded into `scratch` when narrow. The returned span aliases
  /// `scratch` in the latter case — one live expansion per scratch.
  std::span<const Entry> group_expanded(int slot, VertexId v,
                                        std::vector<Entry>& scratch) const {
    const auto [lo, hi] = group_span(slot, v);
    if (!packed_flat_) return {entries_.data() + lo, hi - lo};
    scratch.resize(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) pflat_.row(i, scratch[i - lo]);
    return {scratch.data(), scratch.size()};
  }

  // ---------------------------------------------------------------------

  /// Total lane-0 count over all entries (the root's count at B = 1).
  Count total() const {
    Count sum = 0;
    for_each_entry([&](const Entry& e) { sum += LaneOps<B>::lane(e.cnt, 0); });
    return sum;
  }

  /// Per-lane totals over all entries (the root's colorful counts).
  Vec lane_totals() const {
    Vec sum = LaneOps<B>::zero();
    for_each_entry([&](const Entry& e) { LaneOps<B>::add(sum, e.cnt); });
    return sum;
  }

  /// Sort entries for joins; remembers the order (no-op if sorted).
  /// `domain` is the exclusive upper bound on the grouping
  /// slot's values (the data graph's vertex count): when positive — or
  /// when a small bound can be detected from the data — sealing runs a
  /// stable counting partition on the grouping slot (O(n + domain) plus
  /// tiny per-bucket sorts) and keeps the bucket offsets as an O(1) group
  /// index. With domain 0 and no detectable bound it falls back to a
  /// comparison sort and group() uses binary search. Any order other than
  /// a narrow table's own kByV1 leaves the rows dense.
  void seal(SortOrder order, VertexId domain = 0);
  SortOrder order() const { return order_; }

  /// Whether group() resolves through the O(1) bucket index.
  bool has_bucket_index() const { return !bucket_off_.empty(); }

  /// Contiguous range of entries whose slot `slot` equals v; requires the
  /// matching seal order (kByV0 for slot 0, kByV1 for slot 1). O(1) when
  /// the bucket index covers `slot`, two binary searches otherwise.
  /// Dense layout only — narrow tables use group_expanded().
  std::span<const Entry> group(int slot, VertexId v) const {
    if (packed_flat_) {
      throw Error("ProjTable::group(): table is in the narrow flat layout");
    }
    const auto [lo, hi] = group_span(slot, v);
    return {entries_.data() + lo, hi - lo};
  }

  /// Swap slots 0 and 1 in every key — the transpose of Section 5.2
  /// ("the boundary tables are transpose of each other"). Invalidates the
  /// seal order; the result is dense and unsealed.
  ProjTableT transposed() const {
    ProjTableT out(arity_);
    out.dedup_pending_ = dedup_pending_;
    out.entries_.reserve(size());
    for_each_entry([&](const Entry& e) {
      Entry t = e;
      std::swap(t.key.v[0], t.key.v[1]);
      out.entries_.push_back(t);
    });
    return out;
  }

  /// Sum out every slot except slot 0 (projection to a unary table), or to
  /// arity 0. Used when a cycle's diagonal split must be re-aggregated to
  /// the block's true boundary keys.
  ProjTableT aggregated(int new_arity) const {
    AccumMapT<B> map(size());
    for_each_entry([&](const Entry& e) {
      TableKey key;
      for (int s = 0; s < new_arity; ++s) key.v[s] = e.key.v[s];
      key.sig = e.key.sig;
      map.add(key, e.cnt);
    });
    return ProjTableT::from_map(new_arity, std::move(map));
  }

  /// Append one row. The table becomes an unsorted multiset: the next
  /// sorting seal re-sorts it and sums rows with equal keys.
  void push_unchecked(const Entry& e) {
    if (packed_flat_) unpack_flat();
    entries_.push_back(e);
    drop_index();
    order_ = SortOrder::kUnsorted;
    dedup_pending_ = true;
    layout_ = LaneLayoutInfo{};
  }

 private:
  std::pair<std::size_t, std::size_t> group_span_by_search(
      int slot, VertexId v) const {
    // Branchless-key binary searches over row indices (works for both
    // layouts through key_at).
    const std::size_t n = size();
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key_at(mid).v[slot] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    std::size_t hi2 = n;
    std::size_t lo2 = lo;
    while (lo2 < hi2) {
      const std::size_t mid = lo2 + (hi2 - lo2) / 2;
      if (key_at(mid).v[slot] <= v) {
        lo2 = mid + 1;
      } else {
        hi2 = mid;
      }
    }
    return {lo, lo2};
  }

  /// Smallest detectable domain for an index-less seal: max slot value +
  /// 1, or 0 when the values are too sparse (or are kNoVertex) for a
  /// counting partition to pay off.
  VertexId detect_domain(int slot) const {
    VertexId max_v = 0;
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      max_v = std::max(max_v, key_at(i).v[slot]);
    }
    if (max_v == std::numeric_limits<VertexId>::max()) return 0;  // kNoVertex
    const std::uint64_t domain = std::uint64_t{max_v} + 1;
    if (!detail::domain_worthwhile(n, static_cast<VertexId>(domain))) {
      return 0;
    }
    return static_cast<VertexId>(domain);
  }

  /// Stable counting partition by `slot` over [0, domain), then sort each
  /// bucket by the remaining key fields; keeps the offsets as the index.
  void bucket_sort(int slot, VertexId domain);

  /// Entries already sorted for `order_`; (re)build the offset index only.
  void build_index(int slot, VertexId domain);

  /// Narrow flat rows -> dense entries (order preserved).
  void unpack_flat() {
    entries_.clear();
    entries_.reserve(pflat_.size());
    pflat_.for_each_dense([&](const Entry& e) { entries_.push_back(e); });
    pflat_.clear();
    packed_flat_ = false;
    layout_.packed = false;
  }

  /// After the counting partition: buckets are independent, sort each by
  /// the remaining key fields. Flat-built tables (duplicates pending) use
  /// an unstable sort — the tail order is a total order over the full
  /// key, so equal keys are about to be merged and stability buys
  /// nothing, while std::sort avoids stable_sort's buffer traffic on the
  /// wide lane-vector rows.
  void finish_buckets(int slot, const std::vector<std::uint32_t>& off) {
    auto tail_less = slot == 0 ? detail::less_tail_v0<Entry>
                               : detail::less_tail_v1<Entry>;
    const std::size_t domain = off.size() - 1;
    const std::size_t n = entries_.size();
    (void)n;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024) if (n > (1u << 15))
#endif
    for (std::size_t v = 0; v < domain; ++v) {
      const std::uint32_t lo = off[v];
      const std::uint32_t hi = off[v + 1];
      if (hi - lo > 1) {
        if (dedup_pending_) {
          std::sort(entries_.begin() + lo, entries_.begin() + hi, tail_less);
        } else {
          std::stable_sort(entries_.begin() + lo, entries_.begin() + hi,
                           tail_less);
        }
      }
    }
  }

  void drop_index() {
    bucket_off_.clear();
    index_slot_ = -1;
    domain_ = 0;
  }

  /// Sum runs of equal keys after a full-key sort (flat-built tables).
  void merge_duplicates() {
    std::size_t w = 0;
    std::size_t i = 0;
    while (i < entries_.size()) {
      Entry acc = entries_[i];
      std::size_t j = i + 1;
      while (j < entries_.size() && entries_[j].key == acc.key) {
        LaneSimdT<B>::add(acc.cnt, entries_[j].cnt);
        ++j;
      }
      entries_[w++] = acc;
      i = j;
    }
    entries_.resize(w);
  }

  int arity_ = 0;
  SortOrder order_ = SortOrder::kUnsorted;
  bool dedup_pending_ = false;
  std::vector<Entry> entries_;
  LaneLayoutInfo layout_;

  // Narrow flat layout (born-sorted tables): packed-key rows with
  // width-adapted count vectors. Exactly one of entries_ / pflat_ holds
  // the rows.
  bool packed_flat_ = false;
  FlatRowsT<B> pflat_;

  // CSR bucket index over the grouping slot: entries with key slot value v
  // occupy [bucket_off_[v], bucket_off_[v + 1]). Empty when not built.
  std::vector<std::uint32_t> bucket_off_;
  int index_slot_ = -1;
  VertexId domain_ = 0;
};

template <int B>
void ProjTableT<B>::seal(SortOrder order, VertexId domain) {
  if (order == SortOrder::kUnsorted) {
    order_ = order;
    drop_index();
    return;
  }
  const int slot = group_slot(order);
  if (order_ == order) {
    // Staying put never re-sorts and scans nothing: at most the index is
    // (re)built.
    if (!has_bucket_index() || index_slot_ != slot) {
      if (!detail::domain_worthwhile(size(), domain)) {
        domain = detect_domain(slot);
      }
      if (domain > 0 && size() < std::numeric_limits<std::uint32_t>::max()) {
        build_index(slot, domain);
      }
    }
    return;
  }
  // Re-sorting moves whole rows: work in the dense layout.
  if (packed_flat_) unpack_flat();
  drop_index();
  if (!detail::domain_worthwhile(size(), domain)) {
    domain = detect_domain(slot);
  }
  if (domain > 0 &&
      entries_.size() < std::numeric_limits<std::uint32_t>::max()) {
    bucket_sort(slot, domain);
  } else {
    std::stable_sort(entries_.begin(), entries_.end(),
                     slot == 0 ? detail::less_by_v0<Entry>
                               : detail::less_by_v1<Entry>);
  }
  // Both sort paths leave entries in full-key order, so flat-built rows
  // with equal keys are adjacent: one linear pass sums them, then the
  // bucket index (now stale) is recounted over the merged rows.
  if (dedup_pending_) {
    merge_duplicates();
    dedup_pending_ = false;
    if (has_bucket_index()) {
      const VertexId d = domain_;
      drop_index();
      build_index(slot, d);
    }
  }
  order_ = order;
  if constexpr (B > 1) layout_ = scan_lane_layout<B>(entries_);
}

template <int B>
void ProjTableT<B>::build_index(int slot, VertexId domain) {
  std::vector<std::uint32_t> off(static_cast<std::size_t>(domain) + 1, 0);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = key_at(i).v[slot];
    if (v >= domain) return;  // out-of-domain key: keep binary search
    ++off[v + 1];
  }
  for (std::size_t v = 1; v <= domain; ++v) off[v] += off[v - 1];
  bucket_off_ = std::move(off);
  index_slot_ = slot;
  domain_ = domain;
}

template <int B>
void ProjTableT<B>::bucket_sort(int slot, VertexId domain) {
  const std::size_t n = entries_.size();
  std::vector<std::uint32_t> off(static_cast<std::size_t>(domain) + 1, 0);

#ifdef _OPENMP
  // Parallel counting pass + stable scatter with per-chunk histograms:
  // the input splits into a fixed number of contiguous chunks, each
  // chunk counts into its own histogram, the per-bucket cursors are laid
  // out so chunk c's share of bucket v starts after chunks < c (chunks
  // are in input order, so the scatter stays stable), and each chunk then
  // scatters independently. Work is distributed over chunk INDICES with
  // `omp for`, so the result is identical for any team size the runtime
  // actually delivers (dynamic teams, nested regions, 1 core). Gated on
  // dense-ish domains so the histograms (chunks x domain u32) stay
  // within the table's own footprint.
  const int max_threads = omp_get_max_threads();
  if (max_threads > 1 && n >= (1u << 16) && domain <= n) {
    const int nchunks = max_threads;
    const std::size_t chunk = (n + nchunks - 1) / nchunks;
    std::vector<std::vector<std::uint32_t>> hist(nchunks);
    bool out_of_domain = false;
#pragma omp parallel for schedule(static, 1) reduction(|| : out_of_domain)
    for (int c = 0; c < nchunks; ++c) {
      const std::size_t lo = std::min(n, c * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      auto& h = hist[c];
      h.assign(static_cast<std::size_t>(domain), 0);
      for (std::size_t i = lo; i < hi; ++i) {
        const VertexId v = entries_[i].key.v[slot];
        if (v >= domain) {
          out_of_domain = true;
          break;
        }
        ++h[v];
      }
    }
    if (!out_of_domain) {
      // off[v+1] = bucket totals -> exclusive prefix; then rebase each
      // chunk's histogram into its scatter cursor for bucket v.
      for (int c = 0; c < nchunks; ++c) {
        for (std::size_t v = 0; v < domain; ++v) off[v + 1] += hist[c][v];
      }
      for (std::size_t v = 1; v <= domain; ++v) off[v] += off[v - 1];
#pragma omp parallel for schedule(static)
      for (std::size_t v = 0; v < domain; ++v) {
        std::uint32_t cursor = off[v];
        for (int c = 0; c < nchunks; ++c) {
          const std::uint32_t cnt = hist[c][v];
          hist[c][v] = cursor;
          cursor += cnt;
        }
      }
      std::vector<Entry> sorted(n);
#pragma omp parallel for schedule(static, 1)
      for (int c = 0; c < nchunks; ++c) {
        const std::size_t lo = std::min(n, c * chunk);
        const std::size_t hi = std::min(n, lo + chunk);
        auto& cur = hist[c];
        for (std::size_t i = lo; i < hi; ++i) {
          sorted[cur[entries_[i].key.v[slot]]++] = entries_[i];
        }
      }
      entries_ = std::move(sorted);
      finish_buckets(slot, off);
      bucket_off_ = std::move(off);
      index_slot_ = slot;
      domain_ = domain;
      return;
    }
    // Out-of-domain key seen: fall through to the serial path, which
    // handles the comparison-sort fallback.
    off.assign(static_cast<std::size_t>(domain) + 1, 0);
  }
#endif

  for (const Entry& e : entries_) {
    const VertexId v = e.key.v[slot];
    if (v >= domain) {  // out-of-domain key: fall back, no index
      std::stable_sort(entries_.begin(), entries_.end(),
                       slot == 0 ? detail::less_by_v0<Entry>
                                 : detail::less_by_v1<Entry>);
      return;
    }
    ++off[v + 1];
  }
  for (std::size_t v = 1; v <= domain; ++v) off[v] += off[v - 1];

  // Stable scatter: cursor[v] walks its bucket in input order.
  std::vector<Entry> sorted(n);
  {
    std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
    for (const Entry& e : entries_) sorted[cursor[e.key.v[slot]]++] = e;
  }
  entries_ = std::move(sorted);

  finish_buckets(slot, off);
  bucket_off_ = std::move(off);
  index_slot_ = slot;
  domain_ = domain;
}

using ProjTable = ProjTableT<1>;

// The scalar table is the hot instantiation; compiled once in
// proj_table.cpp (alongside the batched widths) rather than per TU.
extern template class ProjTableT<1>;
extern template class ProjTableT<2>;
extern template class ProjTableT<4>;
extern template class ProjTableT<8>;

}  // namespace ccbt
