#include "ccbt/table/flat_rows.hpp"

#include <array>
#include <bit>

namespace ccbt {

namespace {

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

void FlatRows::drain_bucket_into(FlatRows& out, LaneLayoutInfo& st) {
  if (mode_ == Mode::kPacked) {
    drain_packed(out, st);
  } else {
    drain_wide(out, st);
  }
}

void FlatRows::absorb(FlatRows&& o) {
  if (o.empty()) return;
  if (empty()) {
    *this = std::move(o);
    return;
  }
  if (mode_ == Mode::kPacked && o.mode_ == Mode::kPacked) {
    packed_.insert(packed_.end(), o.packed_.begin(), o.packed_.end());
  } else {
    to_wide();
    o.to_wide();
    wide_.insert(wide_.end(), o.wide_.begin(), o.wide_.end());
  }
  o.clear();
}

/// Order the bucket through 8-byte sort keys — the (v0, sig) bits that
/// vary inside one bucket, above the row index — instead of moving whole
/// rows, then sum each equal-key run exactly in 64 bits. A bucket too large
/// to index that way sorts its rows directly.
void FlatRows::drain_packed(FlatRows& out, LaneLayoutInfo& st) {
  constexpr int kIdxBits = 28;
  constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kIdxBits) - 1;
  std::vector<PackedFlatRow>& rows = packed_;
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
  for (std::size_t i = 0; i < n;) {
    const PackedFlatRow& first = rows[order[i] & idx_mask];
    Count sum = first.c;
    for (++i; i < n && rows[order[i] & idx_mask].k == first.k; ++i) {
      sum += rows[order[i] & idx_mask].c;
    }
    out.append_packed(first.k, sum);
    st.note(sum);
  }
}

void FlatRows::drain_wide(FlatRows& out, LaneLayoutInfo& st) {
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
    st.note(acc.cnt);
    out.wide_.push_back(acc);
  }
}

void FlatRows::to_wide() {
  if (mode_ == Mode::kWide) return;
  wide_.resize(packed_.size());
  for (std::size_t i = 0; i < packed_.size(); ++i) {
    wide_[i] = {unpack_key(packed_[i].k), packed_[i].c};
  }
  packed_.clear();
  mode_ = Mode::kWide;
}

}  // namespace ccbt
