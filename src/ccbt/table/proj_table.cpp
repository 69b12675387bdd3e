#include "ccbt/table/proj_table.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>

namespace ccbt {

namespace {

/// Whether an index over `domain` buckets pays off for n entries: the
/// offsets array must not dominate the table itself. Applies to explicit
/// domains too — a tiny late-stage table on a huge graph must not pay
/// O(num_vertices) per build.
bool domain_worthwhile(std::size_t n, VertexId domain) {
  return domain > 0 &&
         std::uint64_t{domain} <=
             8 * std::uint64_t{std::max<std::size_t>(n, 1)} + 1024;
}

/// The domain the rows, sorted kByV0, show for themselves: their largest
/// slot-0 value + 1, or 0 when that is too sparse (or is kNoVertex) to
/// pay off.
template <typename Rows>
VertexId detect_domain(const Rows& rows) {
  const VertexId max_v = rows.empty() ? 0 : rows.slot(rows[rows.size() - 1], 0);
  if (max_v == kNoVertex) return 0;
  const auto domain = static_cast<VertexId>(std::uint64_t{max_v} + 1);
  return domain_worthwhile(rows.size(), domain) ? domain : 0;
}

/// The CSR offsets of `rows`, sorted kByV0, over slot 0's values
/// [0, domain): bucket v occupies [off[v], off[v + 1]). Empty when a key
/// falls outside the domain.
template <typename Rows>
std::vector<std::uint32_t> v0_offsets(const Rows& rows, VertexId domain) {
  std::vector<std::uint32_t> off(static_cast<std::size_t>(domain) + 1, 0);
  for (const auto& r : rows) {
    const VertexId v = rows.slot(r, 0);
    if (v >= domain) return {};
    ++off[v + 1];
  }
  for (std::size_t v = 1; v <= domain; ++v) off[v] += off[v - 1];
  return off;
}

}  // namespace

ProjTable ProjTable::from_sink(int arity, FlatRows&& sink, VertexId domain) {
  ProjTable t(arity);
  t.rows_ = std::move(sink);
  const std::size_t n = t.size();
  t.visit([&](const auto& rows) {
    assert(std::adjacent_find(rows.begin(), rows.end(),
                              [&](const auto& a, const auto& b) {
                                const TableKey x = rows.key(a);
                                const TableKey y = rows.key(b);
                                return std::tie(x.v, x.sig) >=
                                       std::tie(y.v, y.sig);
                              }) == rows.end());
    if (!domain_worthwhile(n, domain)) domain = detect_domain(rows);
    if (domain > 0 && n < std::numeric_limits<std::uint32_t>::max()) {
      t.bucket_off_ = v0_offsets(rows, domain);
    }
  });
  if (!t.bucket_off_.empty()) {
    t.index_slot_ = 0;
    t.domain_ = domain;
  }
  return t;
}

ProjTable ProjTable::from_buckets(int arity, SortedBuckets&& buckets) {
  ProjTable t(arity);
  t.bucket_off_ = buckets.offsets();
  t.index_slot_ = 1;
  t.domain_ = static_cast<VertexId>(buckets.buckets());
  t.order_ = SortOrder::kByV1;
  t.rows_ = buckets.take_rows();
  t.visit([&](const auto& rows) {
    if (rows.kPacked && !rows.empty()) {
      t.layout_ = buckets.stats();
      t.layout_.packed = true;
    }
  });
  return t;
}

Count ProjTable::total() const {
  return visit([](const auto& rows) {
    Count sum = 0;
    for (const auto& r : rows) sum += rows.count(r);
    return sum;
  });
}

ProjTable ProjTable::transposed(VertexId num_vertices) const {
  FlatRows sink(KeyLayout::for_vertices(num_vertices));
  sink.reserve(size());
  for_each_entry([&](const TableEntry& e) {
    TableKey k = e.key;
    std::swap(k.v[0], k.v[1]);
    sink.append(k, e.cnt);
  });
  sink.sum_duplicates();
  return from_sink(arity_, std::move(sink), num_vertices);
}

std::pair<std::size_t, std::size_t> ProjTable::group_span_by_search(
    int slot, VertexId v) const {
  return visit([&](const auto& rows) {
    const auto lo = std::partition_point(
        rows.begin(), rows.end(),
        [&](const auto& r) { return rows.slot(r, slot) < v; });
    const auto hi = std::partition_point(
        lo, rows.end(), [&](const auto& r) { return rows.slot(r, slot) <= v; });
    return std::pair<std::size_t, std::size_t>(lo - rows.begin(),
                                               hi - rows.begin());
  });
}

}  // namespace ccbt
