#pragma once
// Projection tables (Section 4.2): a synopsis of the colorful matches of a
// subquery, keyed by the images of its boundary nodes (plus tracked
// vertices during DB path construction) and the color signature.
//
// Every table is born in its order; nothing re-sorts a table. The paper
// keeps two orders (Section 7): frontier-homed while a path grows, and
// slot-0-homed once stored.
//   * Path tables arrive sealed kByV1 (from_buckets, flat_rows.hpp): the
//     path primitives build them bucket by bucket over the frontier slot,
//     and the distributed engine builds its path shards the same way.
//   * Every other table is a summed FlatRows sink (from_sink):
//     sum_duplicates left its rows in full-key order, which is the kByV0
//     order, so it arrives sealed kByV0. The merge sinks and aggregates
//     are sinks by nature. A table that needs the other order — a
//     transpose ("the boundary tables are transpose of each other",
//     Section 5.2), shared or distributed — and a table rebuilt from rows
//     (a unary replica, a checkpoint restore) is one too: its rows go into
//     a sink, whose sum only sorts them, since their keys are unique.
// Either way the table carries a CSR-style bucket index over its grouping
// slot when the key domain (the data graph's vertex count) pays off, so
// group(slot, v) is a single offset lookup instead of two binary
// searches. See README.md in this directory for the memory layout and
// the threading model. A table holds the counts of one coloring.
//
// A table holds its rows in one of two layouts:
//   * packed flat rows (FlatRows: a u64 key packed in the data graph's
//     KeyLayout, u64 count). Only a non-empty born-sorted table is packed;
//     a key that does not pack (a slot past the layout's, a signature past
//     8 bits) makes the build dense instead;
//   * dense entries (full key, u64 count). Every sink table is dense, so
//     every stored table and transpose is.
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

/// The two orders a table is born in.
enum class SortOrder : std::uint8_t {
  kByV0,  // group by slot 0 (child-table lookups by first boundary)
  kByV1,  // group by slot 1 (frontier-grouped extensions, merge joins)
};

class ProjTable {
 public:
  ProjTable() = default;

  /// An empty table; arity = number of meaningful leading vertex slots
  /// (0..4).
  explicit ProjTable(int arity) : arity_(arity) {}

  /// Adopt a summed sink (FlatRows::sum_duplicates ran last): its rows
  /// are unique and in full-key order, which is the kByV0 order, so the
  /// dense table arrives sealed kByV0. `domain` is the exclusive upper
  /// bound on slot 0's values (the data graph's vertex count): when it is
  /// small enough against the row count — or a small enough bound shows
  /// in the rows themselves — the table builds its O(1) bucket index over
  /// slot 0; otherwise group() takes two binary searches.
  static ProjTable from_sink(int arity, FlatRows&& sink, VertexId domain);

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
  /// its bucket build's stats; every other table reports rows == 0.
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

  /// The order the table was born in: kByV1 from from_buckets, kByV0
  /// otherwise (an empty table is in both).
  SortOrder order() const { return order_; }

  /// Whether group() resolves through the O(1) bucket index.
  bool has_bucket_index() const { return !bucket_off_.empty(); }

  /// Contiguous range of entries whose slot `slot` equals v; requires the
  /// matching order (kByV0 for slot 0, kByV1 for slot 1). O(1) when
  /// the bucket index covers `slot`, two binary searches otherwise.
  /// Dense layout only — packed tables use group_expanded().
  std::span<const TableEntry> group(int slot, VertexId v) const {
    if (pflat_) {
      throw Error("ProjTable::group(): table is in the packed flat layout");
    }
    const auto [lo, hi] = group_span(slot, v);
    return {entries_.data() + lo, hi - lo};
  }

  /// The transpose of Section 5.2 ("the boundary tables are transpose of
  /// each other"): slots 0 and 1 swapped in every key. The swapped rows
  /// go into a sink in the key layout of a `num_vertices`-vertex data
  /// graph, whose sum only sorts them, so the result arrives sealed kByV0
  /// with its index over `num_vertices` (from_sink).
  ProjTable transposed(VertexId num_vertices) const;

 private:
  /// Two binary searches over row indices (works for both layouts
  /// through key_at).
  std::pair<std::size_t, std::size_t> group_span_by_search(int slot,
                                                           VertexId v) const;

  int arity_ = 0;
  SortOrder order_ = SortOrder::kByV0;
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
