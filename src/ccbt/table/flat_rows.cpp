#include "ccbt/table/flat_rows.hpp"

#include <array>
#include <bit>
#include <type_traits>

namespace ccbt {

namespace {

void note_merged(Count sum, FlatStats& st) {
  ++st.rows;
  st.lanes_occupied += (sum != 0);
  st.max_count = std::max(st.max_count, sum);
}

/// Stable LSD radix sort of `keys` on their bits [lo, lo + bits), one
/// byte per pass; a pass whose byte is the same in every key is skipped.
/// Small inputs take std::sort, which gives the same order as long as the
/// bits below `lo` are unique and ascending in input order.
void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint64_t>& tmp, int lo, int bits) {
  const std::size_t n = keys.size();
  if (n < 64) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  tmp.resize(n);
  for (int shift = lo; shift < lo + bits; shift += 8) {
    std::array<std::uint32_t, 256> pos{};
    for (const std::uint64_t k : keys) ++pos[(k >> shift) & 0xFF];
    if (pos[(keys[0] >> shift) & 0xFF] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& p : pos) sum += std::exchange(p, sum);
    for (const std::uint64_t k : keys) tmp[pos[(k >> shift) & 0xFF]++] = k;
    keys.swap(tmp);
  }
}

}  // namespace

void FlatRows::drain_bucket_into(FlatRows& out, FlatStats& st) {
  switch (mode_) {
    case Mode::kU16: drain_narrow(n16_, out, st); return;
    case Mode::kU32: drain_narrow(n32_, out, st); return;
    case Mode::kWide: break;
  }
  drain_wide(out, st);
}

void FlatRows::absorb(FlatRows&& o) {
  if (o.empty()) return;
  if (empty()) {
    *this = std::move(o);
    return;
  }
  const Mode m = std::max(mode_, o.mode_);
  raise_to(m);
  o.raise_to(m);
  switch (m) {
    case Mode::kU16:
      n16_.insert(n16_.end(), o.n16_.begin(), o.n16_.end());
      break;
    case Mode::kU32:
      n32_.insert(n32_.end(), o.n32_.begin(), o.n32_.end());
      break;
    case Mode::kWide:
      wide_.insert(wide_.end(), o.wide_.begin(), o.wide_.end());
      break;
  }
  o.clear();
}

/// Append one deduplicated row (its exact sum) at this buffer's width,
/// escalating first when the sum needs it.
void FlatRows::push_merged(std::uint64_t k, Count sum) {
  if (mode_ == Mode::kU16 && sum > 0xFFFFull) {
    if (sum <= 0xFFFFFFFFull) {
      to_u32();
    } else {
      to_wide();
    }
  } else if (mode_ == Mode::kU32 && sum > 0xFFFFFFFFull) {
    to_wide();
  }
  switch (mode_) {
    case Mode::kU16:
      n16_.push_back({k, static_cast<std::uint16_t>(sum)});
      return;
    case Mode::kU32:
      n32_.push_back({k, static_cast<std::uint32_t>(sum)});
      return;
    case Mode::kWide: break;
  }
  wide_.push_back({unpack_key(k), sum});
}

/// Append one row that needs no summing; a row of this buffer's width is
/// copied as is, any other goes through push_merged.
template <typename W>
void FlatRows::push_row(const PackedFlatRow<W>& r, FlatStats& st) {
  note_merged(r.c, st);
  if constexpr (std::is_same_v<W, std::uint16_t>) {
    if (mode_ == Mode::kU16) {
      n16_.push_back(r);
      return;
    }
  } else {
    if (mode_ == Mode::kU32) {
      n32_.push_back(r);
      return;
    }
  }
  push_merged(r.k, r.c);
}

/// Order the bucket through 8-byte sort keys — the (v0, sig) bits that
/// vary inside one bucket, above the row index — instead of moving whole
/// rows, then sum each equal-key run exactly in 64 bits. A key with no
/// duplicate (most of them) is copied through as is. A bucket too large
/// to index that way sorts its rows directly.
template <typename W>
void FlatRows::drain_narrow(std::vector<PackedFlatRow<W>>& rows,
                            FlatRows& out, FlatStats& st) {
  constexpr int kIdxBits = 28;
  constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kIdxBits) - 1;
  const std::size_t n = rows.size();
  thread_local std::vector<std::uint64_t> order, tmp;
  order.resize(n);
  std::uint64_t idx_mask = kIdxMask;
  if (n <= kIdxMask) {
    std::uint64_t used = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = rows[i].k;
      const std::uint64_t v0sig = ((k >> 36) << 8) | (k & 0xFF);
      used |= v0sig;
      order[i] = (v0sig << kIdxBits) | i;
    }
    radix_sort(order, tmp, kIdxBits, std::bit_width(used));
  } else {
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.k < b.k; });
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    idx_mask = ~std::uint64_t{0};
  }
  std::size_t i = 0;
  while (i < n) {
    const PackedFlatRow<W>& first = rows[order[i] & idx_mask];
    std::size_t j = i + 1;
    while (j < n && rows[order[j] & idx_mask].k == first.k) ++j;
    if (j == i + 1) {
      out.push_row(first, st);
      i = j;
      continue;
    }
    Count sum = 0;
    for (; i < j; ++i) sum += rows[order[i] & idx_mask].c;
    out.push_merged(first.k, sum);
    note_merged(sum, st);
  }
}

void FlatRows::drain_wide(FlatRows& out, FlatStats& st) {
  std::sort(wide_.begin(), wide_.end(),
            [](const TableEntry& a, const TableEntry& b) {
              const TableKey& x = a.key;
              const TableKey& y = b.key;
              if (x.v[0] != y.v[0]) return x.v[0] < y.v[0];
              if (x.v[2] != y.v[2]) return x.v[2] < y.v[2];
              if (x.v[3] != y.v[3]) return x.v[3] < y.v[3];
              return x.sig < y.sig;
            });
  out.to_wide();
  const std::size_t n = wide_.size();
  std::size_t i = 0;
  while (i < n) {
    TableEntry acc = wide_[i];
    for (++i; i < n && wide_[i].key == acc.key; ++i) acc.cnt += wide_[i].cnt;
    note_merged(acc.cnt, st);
    out.wide_.push_back(acc);
  }
}

void FlatRows::to_u32() {
  n32_.resize(n16_.size());
  for (std::size_t i = 0; i < n16_.size(); ++i) {
    n32_[i] = {n16_[i].k, n16_[i].c};
  }
  n16_.clear();
  mode_ = Mode::kU32;
}

void FlatRows::to_wide() {
  if (mode_ == Mode::kWide) return;
  const std::size_t n = size();
  wide_.resize(n);
  for (std::size_t i = 0; i < n; ++i) row(i, wide_[i]);
  n16_.clear();
  n32_.clear();
  mode_ = Mode::kWide;
}

void FlatRows::raise_to(Mode m) {
  if (mode_ >= m) return;
  if (m == Mode::kU32) {
    to_u32();
  } else {
    to_wide();
  }
}

}  // namespace ccbt
