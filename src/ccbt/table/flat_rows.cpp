#include "ccbt/table/flat_rows.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <tuple>

namespace ccbt {

namespace {

/// Stable LSD radix sort of `v` by the u64 key(x), one byte-wide window
/// per pass. `vary` holds the key bits that differ between some two
/// keys: the windows cover exactly those bits, lowest first, and skip the
/// bits every key shares. `tmp` is the scatter buffer. Small inputs, and
/// inputs too large for u32 offsets, take std::sort, which gives the same
/// order up to the order of equal keys.
template <typename T, typename Key>
void radix_sort(std::vector<T>& v, std::vector<T>& tmp, Key key,
                std::uint64_t vary) {
  const std::size_t n = v.size();
  if (vary == 0) return;
  if (n < 64 || n > std::numeric_limits<std::uint32_t>::max()) {
    std::sort(v.begin(), v.end(),
              [&](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  tmp.resize(n);
  while (vary != 0) {
    const int shift = std::countr_zero(vary);
    std::array<std::uint32_t, 256> pos{};
    for (const T& x : v) ++pos[(key(x) >> shift) & 0xFF];
    std::uint32_t sum = 0;
    for (std::uint32_t& p : pos) sum += std::exchange(p, sum);
    for (const T& x : v) tmp[pos[(key(x) >> shift) & 0xFF]++] = x;
    v.swap(tmp);
    vary = shift >= 56 ? 0 : vary & (~std::uint64_t{0} << (shift + 8));
  }
}

}  // namespace

void FlatRows::drain_bucket_into(FlatRows& out, LaneLayoutInfo& st) {
  assert(layout_ == out.layout_);
  if (mode_ == Mode::kPacked) {
    drain_packed(out, st);
  } else {
    drain_wide(out, st);
  }
}

void FlatRows::absorb(FlatRows&& o) {
  assert(layout_ == o.layout_);
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

/// Order the bucket through 8-byte sort keys — every key field but v1
/// (which the whole bucket shares), above the row index — instead of
/// moving whole rows, then sum each equal-key run exactly in 64 bits. A
/// bucket whose fields and row index together pass 64 bits sorts its rows
/// directly.
void FlatRows::drain_packed(FlatRows& out, LaneLayoutInfo& st) {
  std::vector<PackedFlatRow>& rows = packed_;
  const std::size_t n = rows.size();
  if (n == 0) return;
  // Append each equal-key run of the rows in sorted order, row(i) being
  // the i-th.
  const auto sum_runs = [&](auto row) {
    for (std::size_t i = 0; i < n;) {
      const PackedFlatRow& first = row(i);
      Count sum = first.c;
      for (++i; i < n && row(i).k == first.k; ++i) sum += row(i).c;
      out.append_packed(first.k, sum);
      st.note(sum);
    }
  };
  // Every field but v1 spans shift(0) bits: S - 1 vertex fields and the
  // signature.
  const int idx_bits = std::bit_width(n - 1);
  if (layout_.shift(0) + idx_bits > 64) {
    std::uint64_t vary = 0;
    for (const PackedFlatRow& r : rows) vary |= r.k ^ rows[0].k;
    std::vector<PackedFlatRow> tmp;
    radix_sort(rows, tmp, [](const PackedFlatRow& r) { return r.k; }, vary);
    sum_runs([&](std::size_t i) -> const PackedFlatRow& { return rows[i]; });
    return;
  }
  const int below_v1 = layout_.shift(1);
  const int above_v1 = below_v1 + layout_.bits();
  const std::uint64_t low = (std::uint64_t{1} << below_v1) - 1;
  thread_local std::vector<std::uint64_t> order, tmp;
  order.resize(n);
  const std::uint64_t base = ((rows[0].k >> above_v1) << below_v1) |
                             (rows[0].k & low);
  std::uint64_t vary = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = rows[i].k;
    const std::uint64_t rest = ((k >> above_v1) << below_v1) | (k & low);
    vary |= rest ^ base;
    order[i] = (rest << idx_bits) | i;
  }
  radix_sort(order, tmp, [](std::uint64_t k) { return k; }, vary << idx_bits);
  const std::uint64_t idx_mask = (std::uint64_t{1} << idx_bits) - 1;
  sum_runs([&](std::size_t i) -> const PackedFlatRow& {
    return rows[order[i] & idx_mask];
  });
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

void FlatRows::sum_duplicates() {
  if (mode_ == Mode::kWide) {
    std::sort(wide_.begin(), wide_.end(),
              [](const TableEntry& a, const TableEntry& b) {
                return std::tie(a.key.v, a.key.sig) <
                       std::tie(b.key.v, b.key.sig);
              });
    std::size_t w = 0;
    for (std::size_t i = 0; i < wide_.size();) {
      TableEntry acc = wide_[i];
      for (++i; i < wide_.size() && wide_[i].key == acc.key; ++i) {
        acc.cnt += wide_[i].cnt;
      }
      wide_[w++] = acc;
    }
    wide_.resize(w);
    return;
  }
  if (packed_.empty()) return;
  std::uint64_t vary = 0;
  for (const PackedFlatRow& r : packed_) vary |= r.k ^ packed_[0].k;
  {
    std::vector<PackedFlatRow> tmp;
    radix_sort(packed_, tmp, [](const PackedFlatRow& r) { return r.k; },
               vary);
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < packed_.size();) {
    PackedFlatRow acc = packed_[i];
    for (++i; i < packed_.size() && packed_[i].k == acc.k; ++i) {
      acc.c += packed_[i].c;
    }
    packed_[w++] = acc;
  }
  packed_.resize(w);
}

void FlatRows::to_wide() {
  if (mode_ == Mode::kWide) return;
  wide_.resize(packed_.size());
  for (std::size_t i = 0; i < packed_.size(); ++i) {
    wide_[i] = {layout_.unpack(packed_[i].k), packed_[i].c};
  }
  packed_.clear();
  mode_ = Mode::kWide;
}

}  // namespace ccbt
