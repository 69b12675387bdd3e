#pragma once
// Test tables built the way the engines build theirs: a stored table is a
// summed sink (sink_table), a path table is born sorted by its frontier
// (path_table). Both take rows in any order and sum equal keys, so tests
// that draw rows at random hand them over as drawn.

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// `rows` with each key once, in the order the keys first occur, each
/// carrying the sum of its counts (mod 2^64).
inline std::vector<TableEntry> sum_equal_keys(
    const std::vector<TableEntry>& rows) {
  std::map<std::array<std::uint32_t, 5>, std::size_t> at;
  std::vector<TableEntry> out;
  for (const TableEntry& e : rows) {
    const auto [it, fresh] = at.try_emplace(
        {e.key.v[0], e.key.v[1], e.key.v[2], e.key.v[3], e.key.sig},
        out.size());
    if (fresh) {
      out.push_back(e);
    } else {
      out[it->second].cnt += e.cnt;
    }
  }
  return out;
}

/// A stored table of `rows`: added to a FlatRows sink in the key layout
/// of a `num_vertices`-vertex graph, summed, and adopted sealed kByV0
/// with its index over `num_vertices` (ProjTable::from_sink).
inline ProjTable sink_table(int arity, const std::vector<TableEntry>& rows,
                            VertexId num_vertices) {
  FlatRows sink(KeyLayout::for_vertices(num_vertices));
  for (const TableEntry& e : rows) sink.add(e.key, e.cnt);
  sink.sum_duplicates();
  return ProjTable::from_sink(arity, std::move(sink), num_vertices);
}

/// A path table of `rows`, whose frontiers (slot 1) lie below
/// `num_vertices`: born sorted kByV1, one bucket per vertex, each sorted
/// and summed (ProjTable::from_buckets). Its rows pack in the
/// `num_vertices`-vertex graph's key layout, or with `wide` in one no
/// key packs in, so the table holds wide rows.
inline ProjTable path_table(int arity, const std::vector<TableEntry>& rows,
                            VertexId num_vertices, bool wide = false) {
  const KeyLayout lay = KeyLayout::for_vertices(
      wide ? std::uint64_t{1} << 32 : std::uint64_t{num_vertices});
  std::vector<std::vector<const TableEntry*>> by_frontier(num_vertices);
  for (const TableEntry& e : rows) by_frontier.at(e.key.v[1]).push_back(&e);
  SortedBuckets buckets(lay);
  FlatRows scratch(lay);
  for (const auto& bucket : by_frontier) {
    scratch.reset();
    for (const TableEntry* e : bucket) scratch.append(e->key, e->cnt);
    buckets.close(scratch);
  }
  return ProjTable::from_buckets(arity, std::move(buckets));
}

/// Every row of `rows` — a FlatRows or a ProjTable — as a decoded entry,
/// in storage order.
template <typename Rows>
std::vector<TableEntry> entries_of(const Rows& rows) {
  std::vector<TableEntry> out;
  out.reserve(rows.size());
  rows.for_each_entry([&](const TableEntry& e) { out.push_back(e); });
  return out;
}

/// The rows of `t` whose key slot `slot` is v (ProjTable::group),
/// decoded.
inline std::vector<TableEntry> group_of(const ProjTable& t, int slot,
                                        VertexId v) {
  std::vector<TableEntry> out;
  t.visit([&](const auto& rows) {
    for (const auto& r : t.group(rows, slot, v)) out.push_back(rows.entry(r));
  });
  return out;
}

/// Whether `rows` — a FlatRows or a ProjTable — hold packed rows: the
/// format of the view visit() hands out.
template <typename Rows>
bool is_packed(const Rows& rows) {
  return rows.visit([](const auto& view) { return view.kPacked; });
}

}  // namespace ccbt
