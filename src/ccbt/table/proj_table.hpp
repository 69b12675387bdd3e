#pragma once
// Projection tables (Section 4.2): a synopsis of the colorful matches of a
// subquery, keyed by the images of its boundary nodes (plus tracked
// vertices during DB path construction) and the color signature.
//
// Lifecycle: entries are accumulated through an AccumMap during a join,
// then sealed into a sorted dense vector. Sealing with a known key domain
// (the data graph's vertex count) additionally builds a CSR-style bucket
// index over the grouping slot, so group(slot, v) is a single offset
// lookup instead of two binary searches. See README.md in this directory
// for the memory layout, the lane dimension, and the threading model.
//
// The table is parameterized on the batch width B: entry counts are
// per-lane vectors (see table_key.hpp). Sorting, grouping and the bucket
// index depend only on keys, so all widths share one implementation;
// `ProjTable` aliases the scalar B = 1 instantiation.
//
// At B > 1 a sorting seal() additionally *picks the row layout*: it scans
// the sorted rows' lane density and maximum count and — when the caller
// stores the table for reuse (LaneSealHint::kStore) and the compressed
// form is smaller — re-packs the dense `u64[B]` count vectors into a
// per-row occupancy bitmask plus width-adapted packed payload
// (lane_payload.hpp). Readers either take the dense span fast path
// (entries()/group(), valid while the table is dense) or go through the
// layout-independent accessors (row_at, for_each_entry, group_expanded),
// which expand compressed rows on the fly. B = 1 never re-packs: the
// scalar table keeps the pre-batching layout bit for bit.
//
// The batched path primitives build their tables born sorted
// (from_buckets, flat_rows.hpp): already sealed kByV1 with a bucket index
// over the frontier slot, rows kept as (packed u64 key, narrow count
// vector) and read through the same layout-independent accessors. Keys
// that do not pack and u64-range counts make the rows dense; that
// fallback is automatic and changes no observable counts. Sealing such a
// table in another order re-sorts it in the dense layout.

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
  kByV0,    // group by slot 0 (child-table lookups by first boundary)
  kByV0V1,  // group by (slot 0, slot 1) (half-cycle merge joins)
  kByV1,    // group by slot 1 (frontier-grouped extensions)
};

/// The key slot a sort order groups by (-1 for kUnsorted).
inline constexpr int group_slot(SortOrder order) {
  switch (order) {
    case SortOrder::kByV0:
    case SortOrder::kByV0V1: return 0;
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
  /// shards, filled from transport inboxes): counts of equal keys are
  /// summed by the next seal(). Until then the table behaves like a
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
  /// sealed kByV1 with its bucket index on arrival. Narrow rows stay
  /// narrow (the kStream layout; a later kStore seal may re-pack them).
  static ProjTableT from_buckets(int arity, SortedBucketsT<B>&& buckets) {
    ProjTableT t(arity);
    t.bucket_off_ = buckets.offsets();
    t.index_slot_ = 1;
    t.domain_ = static_cast<VertexId>(buckets.buckets());
    t.order_ = SortOrder::kByV1;
    const FlatStats st = buckets.stats();
    FlatRowsT<B> rows = buckets.take_rows();
    if (rows.narrow()) {
      t.pflat_ = std::move(rows);
      t.packed_flat_ = true;
      t.finish_flat_layout(LaneSealHint::kStream, st);
    } else {
      t.entries_ = rows.take_wide();
      t.choose_layout(LaneSealHint::kStream);
    }
    return t;
  }

  /// Whether rows with duplicate keys may still be present (cleared by
  /// the first sorting seal).
  bool dedup_pending() const { return dedup_pending_; }

  int arity() const { return arity_; }
  std::size_t size() const {
    if (packed_flat_) return pflat_.size();
    return lane_compressed_ ? ckeys_.size() : entries_.size();
  }
  bool empty() const { return size() == 0; }

  /// Dense row span — the fast path every B = 1 consumer uses. Throws
  /// when the rows live in a compressed layout (use the
  /// layout-independent accessors below).
  std::span<const Entry> entries() const {
    if (lane_compressed_) {
      throw Error("ProjTable::entries(): table is lane-compressed");
    }
    if (packed_flat_) {
      throw Error("ProjTable::entries(): table is in the narrow flat layout");
    }
    return entries_;
  }

  // ---------------------------------------------- layout-independent API

  /// Whether rows live in the lane-compressed layout.
  bool lane_compressed() const { return lane_compressed_; }

  /// Whether rows live in the narrow flat layout (born-sorted tables).
  bool packed_flat() const { return packed_flat_; }

  /// The narrow flat storage itself, or nullptr in the other layouts.
  /// The extend fast path reads a u16 table's raw rows without expanding
  /// them to dense entries.
  const FlatRowsT<B>* flat_storage() const {
    return packed_flat_ ? &pflat_ : nullptr;
  }

  /// What the last sorting seal's density scan observed (rows == 0 when
  /// never scanned; B = 1 tables are never scanned).
  const LaneLayoutInfo& layout() const { return layout_; }

  TableKey key_at(std::size_t i) const {
    if (packed_flat_) return pflat_.key_at(i);
    return lane_compressed_ ? ckeys_[i] : entries_[i].key;
  }

  /// Row i as a dense entry: a reference into the table when dense, a
  /// reference to `tmp` (filled by expanding the packed row) when
  /// compressed or narrow.
  const Entry& row_at(std::size_t i, Entry& tmp) const {
    if (packed_flat_) {
      pflat_.row(i, tmp);
      return tmp;
    }
    if (!lane_compressed_) return entries_[i];
    tmp.key = ckeys_[i];
    tmp.cnt = payload_.expand(i);
    return tmp;
  }

  /// Masked-payload view of row i (compressed tables only).
  LaneRowViewT<B> row_view(std::size_t i) const {
    return payload_.view(i, ckeys_[i]);
  }

  /// Visit every row as a dense entry, in table order.
  template <typename F>
  void for_each_entry(F&& f) const {
    if (packed_flat_) {
      pflat_.for_each_dense(f);
      return;
    }
    if (!lane_compressed_) {
      for (const Entry& e : entries_) f(e);
      return;
    }
    Entry tmp;
    for (std::size_t i = 0; i < ckeys_.size(); ++i) {
      tmp.key = ckeys_[i];
      tmp.cnt = payload_.expand(i);
      f(tmp);
    }
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

  /// Dense view of rows [lo, hi): the raw subspan when dense, rows
  /// expanded into `scratch` when compressed. The returned span aliases
  /// `scratch` in the latter case — one live expansion per scratch.
  std::span<const Entry> expand_rows(std::size_t lo, std::size_t hi,
                                     std::vector<Entry>& scratch) const {
    if (packed_flat_) {
      scratch.resize(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        pflat_.row(i, scratch[i - lo]);
      }
      return {scratch.data(), scratch.size()};
    }
    if (!lane_compressed_) {
      return {entries_.data() + lo, hi - lo};
    }
    scratch.resize(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      scratch[i - lo].key = ckeys_[i];
      scratch[i - lo].cnt = payload_.expand(i);
    }
    return {scratch.data(), scratch.size()};
  }

  /// group() for either layout: expands the bucket through `scratch`
  /// when compressed, returns the raw span when dense.
  std::span<const Entry> group_expanded(int slot, VertexId v,
                                        std::vector<Entry>& scratch) const {
    const auto [lo, hi] = group_span(slot, v);
    return expand_rows(lo, hi, scratch);
  }

  // ---------------------------------------------------------------------

  /// Total lane-0 count over all entries (used at the root for B = 1).
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

  /// Sort entries for merge joins; remembers the order (no-op if sorted;
  /// kByV0 and kByV0V1 share one comparator, so converting between them is
  /// a relabel). `domain` is the exclusive upper bound on the grouping
  /// slot's values (the data graph's vertex count): when positive — or
  /// when a small bound can be detected from the data — sealing runs a
  /// stable counting partition on the grouping slot (O(n + domain) plus
  /// tiny per-bucket sorts) and keeps the bucket offsets as an O(1) group
  /// index. With domain 0 and no detectable bound it falls back to a
  /// comparison sort and group() uses binary search.
  ///
  /// At B > 1 the seal ends with the layout choice described in the file
  /// comment; `hint` says whether the caller will store the table.
  void seal(SortOrder order, VertexId domain = 0,
            LaneSealHint hint = LaneSealHint::kStore);
  SortOrder order() const { return order_; }

  /// Whether group() resolves through the O(1) bucket index.
  bool has_bucket_index() const { return !bucket_off_.empty(); }

  /// Contiguous range of entries whose slot `slot` equals v; requires the
  /// matching seal order (kByV0 for slot 0, kByV1 for slot 1). O(1) when
  /// the bucket index covers `slot`, two binary searches otherwise.
  /// Dense layout only — compressed tables use group_expanded().
  std::span<const Entry> group(int slot, VertexId v) const {
    if (lane_compressed_ || packed_flat_) {
      throw Error("ProjTable::group(): rows are in a compressed layout");
    }
    const auto [lo, hi] = group_span(slot, v);
    return {entries_.data() + lo, hi - lo};
  }

  /// Swap slots 0 and 1 in every key — the transpose of Section 5.2
  /// ("the boundary tables are transpose of each other"). Invalidates the
  /// seal order; the result is dense (the caller reseals, which re-picks
  /// the layout).
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

  void push_unchecked(const Entry& e) {
    if (lane_compressed_) unpack_lanes();
    if (packed_flat_) unpack_flat();
    entries_.push_back(e);
    drop_index();
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

  /// seal() for the narrow flat layout: a born-sorted table is already
  /// in kByV1 order, so only the layout decision may change; any other
  /// order re-sorts in the dense layout.
  void seal_packed_flat(SortOrder order, VertexId domain, LaneSealHint hint);

  /// Layout decision for a sorted, deduped narrow table: stay narrow
  /// (the hot-path default — consumers read through the
  /// layout-independent accessors), re-pack to the masked columnar
  /// layout when storing and it is smaller, or widen to dense when
  /// neither compressed form pays.
  void finish_flat_layout(LaneSealHint hint, const FlatStats& st);

  /// Narrow flat rows -> masked columnar layout (ckeys_ + payload_).
  void pack_lanes_from_flat();

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

  /// The seal-time layout choice (B > 1): scan density / max count, then
  /// re-pack when the caller stores the table and packing shrinks it.
  void choose_layout(LaneSealHint hint) {
    if constexpr (B > 1) {
      if (dedup_pending_) return;
      if (lane_compressed_) {
        // kStream promises the dense span fast path to the consumer that
        // follows this seal: honor it even when re-sealing an already
        // packed (stored) table.
        if (hint == LaneSealHint::kStream) unpack_lanes();
        return;
      }
      if (hint == LaneSealHint::kStore) {
        layout_ = scan_lane_layout<B>(
            std::span<const Entry>(entries_.data(), entries_.size()));
        if (lane_layout_profitable(layout_)) pack_lanes();
        return;
      }
      // kStream tables never pack, so the scan is telemetry only: bound
      // it to a prefix sample so hot-path reseals of large intermediate
      // tables don't pay a second full pass over the rows.
      constexpr std::size_t kStreamScanSample = 1u << 16;
      layout_ = scan_lane_layout<B>(std::span<const Entry>(
          entries_.data(), std::min(entries_.size(), kStreamScanSample)));
    } else {
      (void)hint;
    }
  }

  void pack_lanes() {
    const std::size_t n = entries_.size();
    ckeys_.resize(n);
    payload_.reset(layout_.width, n, layout_.lanes_occupied);
    for (std::size_t i = 0; i < n; ++i) {
      ckeys_[i] = entries_[i].key;
      payload_.append(entries_[i].cnt);
    }
    entries_.clear();
    entries_.shrink_to_fit();
    lane_compressed_ = true;
    layout_.packed = true;
  }

  void unpack_lanes() {
    const std::size_t n = ckeys_.size();
    entries_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      entries_[i].key = ckeys_[i];
      entries_[i].cnt = payload_.expand(i);
    }
    ckeys_.clear();
    ckeys_.shrink_to_fit();
    payload_.clear();
    lane_compressed_ = false;
    layout_.packed = false;
  }

  int arity_ = 0;
  SortOrder order_ = SortOrder::kUnsorted;
  bool dedup_pending_ = false;
  std::vector<Entry> entries_;

  // Lane-compressed layout (B > 1, after a kStore seal that packed):
  // unpadded keys in table order plus the columnar packed payload.
  // Exactly one of entries_ / (ckeys_, payload_) / pflat_ holds the rows.
  bool lane_compressed_ = false;
  std::vector<TableKey> ckeys_;
  LanePayloadT<B> payload_;
  LaneLayoutInfo layout_;

  // Narrow flat layout (B > 1 born-sorted tables): packed-key rows with
  // width-adapted count vectors.
  bool packed_flat_ = false;
  FlatRowsT<B> pflat_;

  // CSR bucket index over the grouping slot: entries with key slot value v
  // occupy [bucket_off_[v], bucket_off_[v + 1]). Empty when not built.
  std::vector<std::uint32_t> bucket_off_;
  int index_slot_ = -1;
  VertexId domain_ = 0;
};

template <int B>
void ProjTableT<B>::seal(SortOrder order, VertexId domain,
                         LaneSealHint hint) {
  if (order == SortOrder::kUnsorted) {
    order_ = order;
    drop_index();
    return;
  }
  if (packed_flat_) {
    seal_packed_flat(order, domain, hint);
    return;
  }
  const int slot = group_slot(order);
  // kByV0 sorting is a refinement that also groups by (v0, v1): both
  // orders share one comparator, so converting between them (and staying
  // put) never re-sorts — at most the index is (re)built.
  const bool sorted_already = order_ == order || group_slot(order_) == slot;
  if (!detail::domain_worthwhile(size(), domain)) {
    domain = detect_domain(slot);
  }
  if (sorted_already) {
    order_ = order;
    if (!has_bucket_index() || index_slot_ != slot) {
      if (domain > 0 && size() < std::numeric_limits<std::uint32_t>::max()) {
        build_index(slot, domain);
      }
    }
    choose_layout(hint);
    return;
  }
  // Re-sorting moves whole rows: work in the dense layout.
  if (lane_compressed_) unpack_lanes();
  drop_index();
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
  choose_layout(hint);
}

template <int B>
void ProjTableT<B>::seal_packed_flat(SortOrder order, VertexId domain,
                                     LaneSealHint hint) {
  if (group_slot(order_) == group_slot(order)) {
    // Relabel / repeated seal: rows and index are already right; only
    // the layout decision may change (e.g. a kStore reseal). The table's
    // stats were taken when its buckets were deduplicated.
    order_ = order;
    FlatStats st;
    st.rows = layout_.rows;
    st.lanes_occupied = layout_.lanes_occupied;
    st.max_count = layout_.max_count;
    finish_flat_layout(hint, st);
    return;
  }
  unpack_flat();
  seal(order, domain, hint);
}

template <int B>
void ProjTableT<B>::finish_flat_layout(LaneSealHint hint,
                                       const FlatStats& st) {
  layout_ = LaneLayoutInfo{};
  layout_.rows = st.rows;
  layout_.lane_slots = st.rows * static_cast<std::uint64_t>(B);
  layout_.lanes_occupied = st.lanes_occupied;
  layout_.max_count = st.max_count;
  layout_.width = pflat_.width();
  layout_.dense_bytes = st.rows * sizeof(Entry);
  layout_.packed_bytes = pflat_.byte_size();
  layout_.packed = true;
  if (hint == LaneSealHint::kStore) {
    // Stored tables are probed repeatedly: take the masked columnar
    // layout when it beats the narrow rows (sparse lanes), else stay
    // narrow, else dense.
    LaneLayoutInfo masked = layout_;
    masked.width = choose_payload_width(st.max_count);
    masked.packed_bytes =
        st.rows * (sizeof(TableKey) + 1 + 4) +
        st.lanes_occupied *
            static_cast<std::uint64_t>(payload_width_bytes(masked.width));
    if (lane_layout_profitable(masked) &&
        masked.packed_bytes < layout_.packed_bytes) {
      layout_ = masked;
      pack_lanes_from_flat();
      return;
    }
  }
  if (!lane_layout_profitable(layout_)) unpack_flat();
}

template <int B>
void ProjTableT<B>::pack_lanes_from_flat() {
  const std::size_t n = pflat_.size();
  ckeys_.resize(n);
  payload_.reset(layout_.width, n, layout_.lanes_occupied);
  Entry tmp;
  for (std::size_t i = 0; i < n; ++i) {
    pflat_.row(i, tmp);
    ckeys_[i] = tmp.key;
    payload_.append(tmp.cnt);
  }
  pflat_.clear();
  packed_flat_ = false;
  lane_compressed_ = true;
  layout_.packed = true;
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
