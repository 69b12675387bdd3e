#pragma once
// Projection tables (Section 4.2): a synopsis of the colorful matches of a
// subquery, keyed by the images of its boundary nodes (plus tracked
// vertices during DB path construction) and the color signature.
//
// Lifecycle: the engine's path primitives build their tables born sorted
// (from_buckets, flat_rows.hpp): already sealed kByV1 with a bucket index
// over the frontier slot. The distributed engine builds its path shards
// the same way, bucket by bucket from each rank's delivered rows. The
// merge sinks and aggregates, shared or per rank, hand over their summed
// FlatRows (from_sink): sum_duplicates left them in full-key order, so
// those tables arrive sealed kByV0 and storing them only builds the
// index. Every other table adopts unsorted rows with unique keys
// (from_flat): the distributed engine's transposed shards, unary replicas
// and checkpoint restores. Sealing with a known key domain (the data
// graph's vertex count) builds a CSR-style bucket index over the
// grouping slot, so group(slot, v) is a single offset lookup instead of
// two binary searches. See README.md in this directory for the memory
// layout and the threading model. A table holds the counts of one
// coloring.
//
// A table holds its rows in one of two layouts:
//   * packed flat rows (FlatRows: a u64 key packed in the data graph's
//     KeyLayout, u64 count). Only a non-empty born-sorted table is packed,
//     and only while it keeps its kByV1 order; a key that does not pack
//     (a slot past the layout's, a signature past 8 bits) makes the build
//     dense instead;
//   * dense entries (full key, u64 count). Every other table is dense. A
//     seal into another order re-sorts in the dense layout, so every table
//     sealed kByV0 — every stored table and transpose — is dense.
// Readers either take the dense span fast path (entries()/group(), valid
// while the table is dense) or go through the layout-independent
// accessors (row_at, for_each_entry, group_expanded), which expand packed
// rows on the fly.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
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

class ProjTable {
 public:
  ProjTable() = default;

  /// arity = number of meaningful leading vertex slots (0..4).
  explicit ProjTable(int arity) : arity_(arity) {}

  /// Adopt dense rows with unique keys, in any order (a transposed or
  /// replicated table's, a decoded checkpoint's): the table is dense and
  /// unsealed. Nothing sums equal keys here or in seal().
  static ProjTable from_flat(int arity, std::vector<TableEntry>&& rows) {
    ProjTable t(arity);
    t.entries_ = std::move(rows);
    return t;
  }

  /// Adopt a summed sink (FlatRows::sum_duplicates ran last): its rows
  /// are unique and in full-key order, which is the kByV0 order, so the
  /// dense table arrives sealed kByV0 and seal(kByV0) only builds its
  /// index.
  static ProjTable from_sink(int arity, FlatRows&& sink) {
    ProjTable t = from_flat(arity, sink.take_wide());
    t.order_ = SortOrder::kByV0;
    return t;
  }

  /// Adopt a born-sorted table: one deduplicated bucket per vertex of
  /// [0, buckets.buckets()), already in kByV1 order, so the table is
  /// sealed kByV1 with its bucket index on arrival. Non-empty packed rows
  /// stay packed, and layout() is the bucket build's exact stats.
  static ProjTable from_buckets(int arity, SortedBuckets&& buckets);

  int arity() const { return arity_; }
  std::size_t size() const {
    return pflat_ ? pflat_->size() : entries_.size();
  }
  bool empty() const { return size() == 0; }

  /// Dense row span. Throws when the rows are packed (use the
  /// layout-independent accessors below).
  std::span<const TableEntry> entries() const {
    if (pflat_) {
      throw Error("ProjTable::entries(): table is in the packed flat layout");
    }
    return entries_;
  }

  // ---------------------------------------------- layout-independent API

  /// Whether rows live in the packed flat layout (born-sorted tables).
  bool packed_flat() const { return pflat_.has_value(); }

  /// The packed flat storage itself (always packed()),
  /// or nullptr when dense. The extend fast path and the packed merge read
  /// its raw rows without expanding them to dense entries.
  const FlatRows* flat_storage() const {
    return pflat_ ? &*pflat_ : nullptr;
  }

  /// The occupancy of the table's rows, telemetry only (no layout
  /// decision reads it). A table built born sorted in packed rows takes
  /// its bucket build's stats and keeps them through later seals (which
  /// scan nothing); every other table reports rows == 0.
  const LaneLayoutInfo& layout() const { return layout_; }

  TableKey key_at(std::size_t i) const {
    return pflat_ ? pflat_->key_at(i) : entries_[i].key;
  }

  /// Row i as a dense entry: a reference into the table when dense, a
  /// reference to `tmp` (filled by expanding the packed row) otherwise.
  const TableEntry& row_at(std::size_t i, TableEntry& tmp) const {
    if (!pflat_) return entries_[i];
    pflat_->row(i, tmp);
    return tmp;
  }

  /// Visit every row as a dense entry, in table order.
  template <typename F>
  void for_each_entry(F&& f) const {
    if (pflat_) {
      pflat_->for_each_dense(f);
      return;
    }
    for (const TableEntry& e : entries_) f(e);
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
  /// expanded into `scratch` when packed. The returned span aliases
  /// `scratch` in the latter case — one live expansion per scratch.
  std::span<const TableEntry> group_expanded(
      int slot, VertexId v, std::vector<TableEntry>& scratch) const {
    const auto [lo, hi] = group_span(slot, v);
    if (!pflat_) return {entries_.data() + lo, hi - lo};
    scratch.resize(hi - lo);
    const KeyLayout lay = pflat_->layout();
    const PackedFlatRow* const rows = pflat_->packed_rows().data();
    for (std::size_t i = lo; i < hi; ++i) {
      scratch[i - lo] = {lay.unpack(rows[i].k), rows[i].c};
    }
    return {scratch.data(), scratch.size()};
  }

  // ---------------------------------------------------------------------

  /// Total count over all entries (the root's colorful count).
  Count total() const {
    Count sum = 0;
    for_each_entry([&](const TableEntry& e) { sum += e.cnt; });
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
  /// a packed table's own kByV1 leaves the rows dense.
  void seal(SortOrder order, VertexId domain = 0);
  SortOrder order() const { return order_; }

  /// Whether group() resolves through the O(1) bucket index.
  bool has_bucket_index() const { return !bucket_off_.empty(); }

  /// Contiguous range of entries whose slot `slot` equals v; requires the
  /// matching seal order (kByV0 for slot 0, kByV1 for slot 1). O(1) when
  /// the bucket index covers `slot`, two binary searches otherwise.
  /// Dense layout only — packed tables use group_expanded().
  std::span<const TableEntry> group(int slot, VertexId v) const {
    if (pflat_) {
      throw Error("ProjTable::group(): table is in the packed flat layout");
    }
    const auto [lo, hi] = group_span(slot, v);
    return {entries_.data() + lo, hi - lo};
  }

  /// Swap slots 0 and 1 in every key — the transpose of Section 5.2
  /// ("the boundary tables are transpose of each other"). Invalidates the
  /// seal order; the result is dense and unsealed.
  ProjTable transposed() const;

 private:
  /// Two binary searches over row indices (works for both layouts
  /// through key_at).
  std::pair<std::size_t, std::size_t> group_span_by_search(int slot,
                                                           VertexId v) const;

  /// Smallest detectable domain for an index-less seal: max slot value +
  /// 1, or 0 when the values are too sparse (or are kNoVertex) for a
  /// counting partition to pay off.
  VertexId detect_domain(int slot) const;

  /// Stable counting partition by `slot` over [0, domain), then sort each
  /// bucket by the remaining key fields; keeps the offsets as the index.
  void bucket_sort(int slot, VertexId domain);

  /// Entries already sorted for `order_`; (re)build the offset index only.
  void build_index(int slot, VertexId domain);

  /// After the counting partition: sort each bucket by the remaining key
  /// fields.
  void finish_buckets(int slot, const std::vector<std::uint32_t>& off);

  /// Packed flat rows -> dense entries (order preserved).
  void unpack_flat();

  void drop_index() {
    bucket_off_.clear();
    index_slot_ = -1;
    domain_ = 0;
  }

  int arity_ = 0;
  SortOrder order_ = SortOrder::kUnsorted;
  std::vector<TableEntry> entries_;
  LaneLayoutInfo layout_;

  // Packed flat layout (born-sorted tables): packed-key rows with u64
  // counts; empty when entries_ holds the rows.
  std::optional<FlatRows> pflat_;

  // CSR bucket index over the grouping slot: entries with key slot value v
  // occupy [bucket_off_[v], bucket_off_[v + 1]). Empty when not built.
  std::vector<std::uint32_t> bucket_off_;
  int index_slot_ = -1;
  VertexId domain_ = 0;
};

}  // namespace ccbt
