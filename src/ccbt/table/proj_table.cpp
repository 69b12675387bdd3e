#include "ccbt/table/proj_table.hpp"

#include <algorithm>
#include <limits>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ccbt {

namespace {

bool less_by_v0(const TableEntry& a, const TableEntry& b) {
  if (a.key.v[0] != b.key.v[0]) return a.key.v[0] < b.key.v[0];
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

bool less_by_v1(const TableEntry& a, const TableEntry& b) {
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  return less_by_v0(a, b);
}

/// Tie-break inside one slot-0 bucket (slot 0 equal by construction).
bool less_tail_v0(const TableEntry& a, const TableEntry& b) {
  if (a.key.v[1] != b.key.v[1]) return a.key.v[1] < b.key.v[1];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

/// Tie-break inside one slot-1 bucket (slot 1 equal by construction).
bool less_tail_v1(const TableEntry& a, const TableEntry& b) {
  if (a.key.v[0] != b.key.v[0]) return a.key.v[0] < b.key.v[0];
  if (a.key.v[2] != b.key.v[2]) return a.key.v[2] < b.key.v[2];
  if (a.key.v[3] != b.key.v[3]) return a.key.v[3] < b.key.v[3];
  return a.key.sig < b.key.sig;
}

/// Whether a counting partition over `domain` buckets pays off for n
/// entries: the offsets array must not dominate the sort itself. Applies
/// to explicit domains too — a tiny late-stage table on a huge graph must
/// not pay O(num_vertices) per seal.
bool domain_worthwhile(std::size_t n, VertexId domain) {
  return domain > 0 &&
         std::uint64_t{domain} <=
             8 * std::uint64_t{std::max<std::size_t>(n, 1)} + 1024;
}

}  // namespace

ProjTable ProjTable::from_buckets(int arity, SortedBuckets&& buckets) {
  ProjTable t(arity);
  t.bucket_off_ = buckets.offsets();
  t.index_slot_ = 1;
  t.domain_ = static_cast<VertexId>(buckets.buckets());
  t.order_ = SortOrder::kByV1;
  const FlatStats& st = buckets.stats();
  FlatRows rows = buckets.take_rows();
  if (rows.narrow() && !rows.empty()) {
    t.layout_.rows = st.rows;
    t.layout_.lane_slots = st.rows;
    t.layout_.lanes_occupied = st.lanes_occupied;
    t.layout_.max_count = st.max_count;
    t.layout_.width = rows.width();
    t.layout_.packed = true;
    t.pflat_ = std::move(rows);
    t.packed_flat_ = true;
  } else {
    t.entries_ = rows.take_wide();
  }
  return t;
}

ProjTable ProjTable::transposed() const {
  ProjTable out(arity_);
  out.dedup_pending_ = dedup_pending_;
  out.entries_.reserve(size());
  for_each_entry([&](const TableEntry& e) {
    TableEntry t = e;
    std::swap(t.key.v[0], t.key.v[1]);
    out.entries_.push_back(t);
  });
  return out;
}

ProjTable ProjTable::aggregated(int new_arity) const {
  AccumMap map(size());
  for_each_entry([&](const TableEntry& e) {
    TableKey key;
    for (int s = 0; s < new_arity; ++s) key.v[s] = e.key.v[s];
    key.sig = e.key.sig;
    map.add(key, e.cnt);
  });
  return ProjTable::from_map(new_arity, std::move(map));
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

VertexId ProjTable::detect_domain(int slot) const {
  VertexId max_v = 0;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    max_v = std::max(max_v, key_at(i).v[slot]);
  }
  if (max_v == std::numeric_limits<VertexId>::max()) return 0;  // kNoVertex
  const std::uint64_t domain = std::uint64_t{max_v} + 1;
  if (!domain_worthwhile(n, static_cast<VertexId>(domain))) return 0;
  return static_cast<VertexId>(domain);
}

void ProjTable::unpack_flat() {
  entries_.clear();
  entries_.reserve(pflat_.size());
  pflat_.for_each_dense([&](const TableEntry& e) { entries_.push_back(e); });
  pflat_.clear();
  packed_flat_ = false;
  layout_.packed = false;
}

/// Buckets are independent: sort each by the remaining key fields.
/// Flat-built tables (duplicates pending) use an unstable sort — the tail
/// order is a total order over the full key, so equal keys are about to
/// be merged and stability buys nothing, while std::sort avoids
/// stable_sort's buffer traffic.
void ProjTable::finish_buckets(int slot,
                               const std::vector<std::uint32_t>& off) {
  auto tail_less = slot == 0 ? less_tail_v0 : less_tail_v1;
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

void ProjTable::merge_duplicates() {
  std::size_t w = 0;
  std::size_t i = 0;
  while (i < entries_.size()) {
    TableEntry acc = entries_[i];
    std::size_t j = i + 1;
    while (j < entries_.size() && entries_[j].key == acc.key) {
      acc.cnt += entries_[j].cnt;
      ++j;
    }
    entries_[w++] = acc;
    i = j;
  }
  entries_.resize(w);
}

void ProjTable::seal(SortOrder order, VertexId domain) {
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
      if (!domain_worthwhile(size(), domain)) {
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
  if (!domain_worthwhile(size(), domain)) {
    domain = detect_domain(slot);
  }
  if (domain > 0 &&
      entries_.size() < std::numeric_limits<std::uint32_t>::max()) {
    bucket_sort(slot, domain);
  } else {
    std::stable_sort(entries_.begin(), entries_.end(),
                     slot == 0 ? less_by_v0 : less_by_v1);
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
}

void ProjTable::build_index(int slot, VertexId domain) {
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

void ProjTable::bucket_sort(int slot, VertexId domain) {
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
      std::vector<TableEntry> sorted(n);
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

  for (const TableEntry& e : entries_) {
    const VertexId v = e.key.v[slot];
    if (v >= domain) {  // out-of-domain key: fall back, no index
      std::stable_sort(entries_.begin(), entries_.end(),
                       slot == 0 ? less_by_v0 : less_by_v1);
      return;
    }
    ++off[v + 1];
  }
  for (std::size_t v = 1; v <= domain; ++v) off[v] += off[v - 1];

  // Stable scatter: cursor[v] walks its bucket in input order.
  std::vector<TableEntry> sorted(n);
  {
    std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
    for (const TableEntry& e : entries_) sorted[cursor[e.key.v[slot]]++] = e;
  }
  entries_ = std::move(sorted);

  finish_buckets(slot, off);
  bucket_off_ = std::move(off);
  index_slot_ = slot;
  domain_ = domain;
}

}  // namespace ccbt
