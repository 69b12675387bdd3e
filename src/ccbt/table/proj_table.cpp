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
VertexId detect_domain(const std::vector<TableEntry>& rows) {
  const VertexId max_v = rows.empty() ? 0 : rows.back().key.v[0];
  if (max_v == std::numeric_limits<VertexId>::max()) return 0;  // kNoVertex
  const auto domain = static_cast<VertexId>(std::uint64_t{max_v} + 1);
  return domain_worthwhile(rows.size(), domain) ? domain : 0;
}

/// The CSR offsets of `rows`, sorted kByV0, over slot 0's values
/// [0, domain): bucket v occupies [off[v], off[v + 1]). Empty when a key
/// falls outside the domain.
std::vector<std::uint32_t> v0_offsets(const std::vector<TableEntry>& rows,
                                      VertexId domain) {
  std::vector<std::uint32_t> off(static_cast<std::size_t>(domain) + 1, 0);
  for (const TableEntry& e : rows) {
    if (e.key.v[0] >= domain) return {};
    ++off[e.key.v[0] + 1];
  }
  for (std::size_t v = 1; v <= domain; ++v) off[v] += off[v - 1];
  return off;
}

}  // namespace

ProjTable ProjTable::from_sink(int arity, FlatRows&& sink, VertexId domain) {
  ProjTable t(arity);
  t.entries_ = sink.take_wide();
  const std::vector<TableEntry>& rows = t.entries_;
  assert(std::adjacent_find(rows.begin(), rows.end(),
                            [](const TableEntry& a, const TableEntry& b) {
                              return std::tie(a.key.v, a.key.sig) >=
                                     std::tie(b.key.v, b.key.sig);
                            }) == rows.end());
  if (!domain_worthwhile(rows.size(), domain)) domain = detect_domain(rows);
  if (domain > 0 && rows.size() < std::numeric_limits<std::uint32_t>::max()) {
    t.bucket_off_ = v0_offsets(rows, domain);
    if (!t.bucket_off_.empty()) {
      t.index_slot_ = 0;
      t.domain_ = domain;
    }
  }
  return t;
}

ProjTable ProjTable::from_buckets(int arity, SortedBuckets&& buckets) {
  ProjTable t(arity);
  t.bucket_off_ = buckets.offsets();
  t.index_slot_ = 1;
  t.domain_ = static_cast<VertexId>(buckets.buckets());
  t.order_ = SortOrder::kByV1;
  FlatRows rows = buckets.take_rows();
  if (rows.packed() && !rows.empty()) {
    t.layout_ = buckets.stats();
    t.layout_.packed = true;
    t.pflat_ = std::move(rows);
  } else {
    t.entries_ = rows.take_wide();
  }
  return t;
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

}  // namespace ccbt
