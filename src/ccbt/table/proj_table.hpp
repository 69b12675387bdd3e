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
// group_span(slot, v) is a single offset lookup instead of two binary
// searches. See README.md in this directory for the memory layout and
// the threading model. A table holds the counts of one coloring.
//
// A table is one FlatRows, adopted as it was built: packed while its keys
// pack in the data graph's KeyLayout, wide once one did not (a slot past
// the layout's, a signature past 8 bits). Readers never branch on the
// format: visit() hands them the rows' view (PackedRows or WideRows,
// flat_rows.hpp), and every join is a template over it. for_each_entry
// reads rows as decoded entries, whatever the format.

#include <cstdint>
#include <utility>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/table_key.hpp"

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

  /// Adopt a summed sink (FlatRows::sum_duplicates ran last) as it is:
  /// its rows are unique and in full-key order, which is the kByV0 order,
  /// so the table arrives sealed kByV0. `domain` is the exclusive upper
  /// bound on slot 0's values (the data graph's vertex count): when it is
  /// small enough against the row count — or a small enough bound shows
  /// in the rows themselves — the table builds its O(1) bucket index over
  /// slot 0; otherwise group_span() takes two binary searches.
  static ProjTable from_sink(int arity, FlatRows&& sink, VertexId domain);

  /// Adopt a born-sorted table: one deduplicated bucket per vertex of
  /// [0, buckets.buckets()), already in kByV1 order, so the table is
  /// sealed kByV1 with its bucket index on arrival. Non-empty packed rows
  /// report the bucket build's exact stats as layout().
  static ProjTable from_buckets(int arity, SortedBuckets&& buckets);

  int arity() const { return arity_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return size() == 0; }

  /// The occupancy of the table's rows, telemetry only (no layout
  /// decision reads it). A table built born sorted in packed rows takes
  /// its bucket build's stats; every other table reports rows == 0.
  const LaneLayoutInfo& layout() const { return layout_; }

  /// Call `f` with the view of the rows (FlatRows::visit) and return what
  /// it returns: the one place a reader learns the rows' format.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return rows_.visit(std::forward<F>(f));
  }

  /// Index range of the group with slot `slot` equal to v; requires the
  /// matching order (kByV0 for slot 0, kByV1 for slot 1). O(1) when the
  /// bucket index covers `slot`, two binary searches otherwise.
  std::pair<std::size_t, std::size_t> group_span(int slot, VertexId v) const {
    if (slot == index_slot_) {
      if (v >= domain_) return {0, 0};
      return {bucket_off_[v], bucket_off_[v + 1]};
    }
    return group_span_by_search(slot, v);
  }

  /// The rows of that group, as a sub-view of `rows`, this table's view.
  template <typename Rows>
  Rows group(const Rows& rows, int slot, VertexId v) const {
    const auto [lo, hi] = group_span(slot, v);
    return rows.sub(lo, hi);
  }

  /// Visit every row as a decoded entry, in table order.
  template <typename F>
  void for_each_entry(F&& f) const {
    rows_.for_each_entry(std::forward<F>(f));
  }

  /// Total count over all entries (the root's colorful count).
  Count total() const;

  /// The order the table was born in: kByV1 from from_buckets, kByV0
  /// otherwise (an empty table is in both).
  SortOrder order() const { return order_; }

  /// Whether group_span() resolves through the O(1) bucket index.
  bool has_bucket_index() const { return !bucket_off_.empty(); }

  /// The transpose of Section 5.2 ("the boundary tables are transpose of
  /// each other"): slots 0 and 1 swapped in every key. The swapped rows
  /// go into a sink in the key layout of a `num_vertices`-vertex data
  /// graph, whose sum only sorts them, so the result arrives sealed kByV0
  /// with its index over `num_vertices` (from_sink).
  ProjTable transposed(VertexId num_vertices) const;

 private:
  /// Two binary searches over the rows.
  std::pair<std::size_t, std::size_t> group_span_by_search(int slot,
                                                           VertexId v) const;

  int arity_ = 0;
  SortOrder order_ = SortOrder::kByV0;
  // The rows. An empty table's layout is never read.
  FlatRows rows_{KeyLayout::for_vertices(0)};
  LaneLayoutInfo layout_;

  // CSR bucket index over the grouping slot: rows with key slot value v
  // occupy [bucket_off_[v], bucket_off_[v + 1]). Empty when not built.
  std::vector<std::uint32_t> bucket_off_;
  int index_slot_ = -1;
  VertexId domain_ = 0;
};

}  // namespace ccbt
