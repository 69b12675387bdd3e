#pragma once
// Narrow flat rows — the batched (B > 1) path tables' storage.
//
// A dense TableEntryT<B> is 88 bytes at B = 8; a narrow flat row is the
// packed 64-bit key (table_key.hpp: v0:28 | v1:28 | sig:8) plus all B
// lane counts at the narrowest width that holds them:
//
//   u16: 8 + 2B bytes   (24 at B = 8)
//   u32: 8 + 4B bytes   (40 at B = 8)
//
// The width escalates for the whole buffer the first time a count
// outgrows it (u16 -> u32), and the buffer migrates to dense wide rows on
// the first unpackable key (a tracked slot >= 2, a signature past 8 bits)
// or u64-range count — the engine's correctness never depends on staying
// narrow. Because the packed key is ordered as (v0, v1, sig) and narrow
// keys never use slots 2-3, a raw u64 compare inside one frontier bucket
// reproduces the projection table's kByV1 comparator exactly.
//
// Path primitives build their output born sorted: one frontier vertex w
// at a time, in ascending w, the rows landing on w are gathered into a
// scratch FlatRowsT, sorted and deduplicated locally with exact u64 run
// sums (drain_bucket_into), and appended to a SortedBucketsT together
// with their bucket offset. The result is already sealed kByV1 — there is
// no global sort anywhere on the B > 1 path.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// Accumulation-stage telemetry, one phase per B > 1 primitive
/// (ExecStats::accum): the rows the per-bucket sorts consumed and the
/// bytes they occupied. The sharded, sparse and fold counters described
/// emission mechanisms this engine no longer has and always read 0;
/// bench_suite still reads them, so they leave with the next change to
/// the benchmark.
struct AccumTelemetry {
  std::uint64_t phases = 0;          // accumulation phases observed
  std::uint64_t rows = 0;            // rows emitted into bucket sorts
  std::uint64_t emit_bytes = 0;      // bytes those rows occupied
  std::uint64_t sharded_phases = 0;  // always 0
  std::uint64_t sparse_phases = 0;   // always 0
  std::uint64_t combine_folds = 0;   // always 0
  std::uint64_t frontier_folds = 0;  // always 0
  void add(const AccumTelemetry& o) {
    phases += o.phases;
    rows += o.rows;
    emit_bytes += o.emit_bytes;
  }
  double shard_occupancy() const { return 0.0; }
  double bytes_per_row() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(emit_bytes) /
                           static_cast<double>(rows);
  }
};

/// One narrow flat row: packed key + all B lane counts at width W.
template <int B, typename W>
struct PackedFlatRowT {
  std::uint64_t k = 0;
  std::array<W, B> c{};
};

/// What the run-merged rows of a table look like (the layout chooser's
/// inputs), gathered while the buckets are deduplicated.
struct FlatStats {
  std::uint64_t rows = 0;            // distinct keys
  std::uint64_t lanes_occupied = 0;  // nonzero lanes over merged rows
  Count max_count = 0;               // largest merged lane count

  void add(const FlatStats& o) {
    rows += o.rows;
    lanes_occupied += o.lanes_occupied;
    max_count = std::max(max_count, o.max_count);
  }
};

template <int B>
class FlatRowsT {
 public:
  using Vec = typename LaneOps<B>::Vec;
  using Entry = TableEntryT<B>;

  /// Active row representation; ordered so std::max picks the wider one.
  enum class Mode : std::uint8_t { kU16 = 0, kU32 = 1, kWide = 2 };

  using Row16 = PackedFlatRowT<B, std::uint16_t>;
  using Row32 = PackedFlatRowT<B, std::uint32_t>;

  FlatRowsT() = default;

  std::size_t size() const {
    switch (mode_) {
      case Mode::kU16: return n16_.size();
      case Mode::kU32: return n32_.size();
      case Mode::kWide: break;
    }
    return wide_.size();
  }
  bool empty() const { return size() == 0; }
  Mode mode() const { return mode_; }
  bool narrow() const { return mode_ != Mode::kWide; }

  /// Raw u16 rows (valid only while mode() == kU16). The extend hot path
  /// iterates these directly, with no dense round trip.
  const std::vector<Row16>& rows_u16() const { return n16_; }

  /// Raw u32 rows (valid only while mode() == kU32) — the packed merge
  /// joins mixed-width tables without a dense expansion.
  const std::vector<Row32>& rows_u32() const { return n32_; }

  /// Payload width of the narrow modes (kU64 when wide).
  PayloadWidth width() const {
    switch (mode_) {
      case Mode::kU16: return PayloadWidth::kU16;
      case Mode::kU32: return PayloadWidth::kU32;
      case Mode::kWide: break;
    }
    return PayloadWidth::kU64;
  }

  /// Bytes the rows occupy in the current representation.
  std::uint64_t byte_size() const {
    switch (mode_) {
      case Mode::kU16: return n16_.size() * sizeof(Row16);
      case Mode::kU32: return n32_.size() * sizeof(Row32);
      case Mode::kWide: break;
    }
    return wide_.size() * sizeof(Entry);
  }

  /// Reserve room for n rows in the current representation. Untouched
  /// capacity costs address space, not memory.
  void reserve(std::size_t n) {
    switch (mode_) {
      case Mode::kU16: n16_.reserve(n); return;
      case Mode::kU32: n32_.reserve(n); return;
      case Mode::kWide: break;
    }
    wide_.reserve(n);
  }

  /// Empty the buffer and restart it in `start` mode (kU16, or kWide when
  /// lane compression is off), keeping its capacity — the per-bucket
  /// scratch is reset once per frontier vertex.
  void reset(Mode start = Mode::kU16) {
    n16_.clear();
    n32_.clear();
    wide_.clear();
    mode_ = start;
  }

  /// Append one emitted row. Escalates the buffer width when a count
  /// outgrows it; migrates the whole buffer to wide rows on the first
  /// unpackable key or u64-range count.
  void append(const TableKey& key, const Vec& cnt) {
    if (mode_ != Mode::kWide && packable_key(key)) {
      // OR of the lanes bounds the max: any count above the width has a
      // high bit the OR keeps.
      Count hi = 0;
      for (int l = 0; l < B; ++l) hi |= LaneOps<B>::lane(cnt, l);
      if (push_narrow(pack_key(key), cnt, ~LaneMask{0}, hi)) return;
    }
    to_wide();
    wide_.push_back({key, cnt});
  }

  /// Append one emission that is `src` restricted to the lanes of `m`
  /// (zeros elsewhere), without materializing the dense masked vector.
  /// `src_hi` is the OR of ALL of src's lanes, computed once per source
  /// row by the caller: when it fits the current width every masked
  /// subset does too and the per-emission reduce is skipped; otherwise
  /// the exact masked OR decides (so one oversized-but-masked-off lane
  /// never escalates the buffer).
  void append_masked(const TableKey& key, const Vec& src, LaneMask m,
                     Count src_hi) {
    if (mode_ != Mode::kWide && packable_key(key)) {
      Count hi = src_hi;
      if ((mode_ == Mode::kU16 && hi > 0xFFFFull) ||
          (mode_ == Mode::kU32 && hi > 0xFFFFFFFFull)) {
        hi = masked_or(src, m);
      }
      if (push_narrow(pack_key(key), src, m, hi)) return;
    }
    to_wide();
    wide_.push_back({key, LaneOps<B>::masked(src, m)});
  }

  /// Append a masked copy of a u16 source row under a caller-packed key
  /// — the all-16-bit extend hot path: a masked subset of u16 counts
  /// always fits u16, so a u16 buffer takes it with a plain push.
  void append_masked_u16(std::uint64_t k, const Row16& src, LaneMask m) {
    if (mode_ == Mode::kU16) [[likely]] {
      Row16 r;
      r.k = k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) {
        r.c[l] = ((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0};
      }
      n16_.push_back(r);
      return;
    }
    append_masked(unpack_key(k), expand_counts(src), m,
                  std::uint64_t{0xFFFF});
  }

  /// Close one frontier bucket: sort this buffer's rows by full key (they
  /// all share one v1, so this is the kByV1 order inside the bucket) and
  /// append each equal-key run to `out`, summed exactly in 64 bits. `out`
  /// widens when a sum outgrows its width or this buffer went wide; `st`
  /// gathers the merged rows' stats. This buffer is left for reset().
  void drain_bucket_into(FlatRowsT& out, FlatStats& st) {
    switch (mode_) {
      case Mode::kU16: drain_narrow(n16_, out, st); return;
      case Mode::kU32: drain_narrow(n32_, out, st); return;
      case Mode::kWide: break;
    }
    drain_wide(out, st);
  }

  TableKey key_at(std::size_t i) const {
    switch (mode_) {
      case Mode::kU16: return unpack_key(n16_[i].k);
      case Mode::kU32: return unpack_key(n32_[i].k);
      case Mode::kWide: break;
    }
    return wide_[i].key;
  }

  Vec expand(std::size_t i) const {
    switch (mode_) {
      case Mode::kU16: return expand_counts(n16_[i]);
      case Mode::kU32: return expand_counts(n32_[i]);
      case Mode::kWide: break;
    }
    return wide_[i].cnt;
  }

  /// Row i as a dense entry, written into `out`.
  void row(std::size_t i, Entry& out) const {
    out.key = key_at(i);
    out.cnt = expand(i);
  }

  /// Visit every row as a dense entry, in storage order.
  template <typename F>
  void for_each_dense(F&& f) const {
    Entry tmp;
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      row(i, tmp);
      f(tmp);
    }
  }

  /// Append another buffer's rows after this one's (concatenating the
  /// independently built vertex ranges of one table): both are raised to
  /// the wider representation first.
  void absorb(FlatRowsT&& o) {
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

  /// Convert to dense wide rows (in current order) and hand them over.
  std::vector<Entry> take_wide() {
    to_wide();
    std::vector<Entry> out = std::move(wide_);
    clear();
    return out;
  }

  /// Empty the buffer and release its memory.
  void clear() {
    reset();
    n16_.shrink_to_fit();
    n32_.shrink_to_fit();
    wide_.shrink_to_fit();
  }

  template <typename W>
  static Vec expand_counts(const PackedFlatRowT<B, W>& r) {
    Vec v = LaneOps<B>::zero();
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      LaneOps<B>::set_lane(v, l, r.c[l]);
    }
    return v;
  }

 private:
  /// OR of the lanes of `src` selected by `m` (bounds their max).
  static Count masked_or(const Vec& src, LaneMask m) {
    Count hi = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      hi |= ((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l) : Count{0};
    }
    return hi;
  }

  /// Push the `m` lanes of `src` as a narrow row, escalating u16 -> u32
  /// when `hi` (a bound on those lanes) needs it. False when even u32 is
  /// too narrow — the caller goes wide.
  bool push_narrow(std::uint64_t k, const Vec& src, LaneMask m, Count hi) {
    if (mode_ == Mode::kU16) {
      if (hi <= 0xFFFFull) {
        push_masked(n16_, k, src, m);
        return true;
      }
      if (hi > 0xFFFFFFFFull) return false;
      to_u32();
    }
    if (hi > 0xFFFFFFFFull) return false;
    push_masked(n32_, k, src, m);
    return true;
  }

  template <typename W>
  static void push_masked(std::vector<PackedFlatRowT<B, W>>& rows,
                          std::uint64_t k, const Vec& src, LaneMask m) {
    PackedFlatRowT<B, W> r;
    r.k = k;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      r.c[l] = static_cast<W>(((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l)
                                                  : Count{0});
    }
    rows.push_back(r);
  }

  /// Append one deduplicated row (exact lane sums, `hi` their OR) at this
  /// buffer's width, escalating first when the sums need it.
  void push_merged(std::uint64_t k, const std::array<Count, B>& sum,
                   Count hi) {
    if (mode_ == Mode::kU16 && hi > 0xFFFFull) {
      if (hi <= 0xFFFFFFFFull) {
        to_u32();
      } else {
        to_wide();
      }
    } else if (mode_ == Mode::kU32 && hi > 0xFFFFFFFFull) {
      to_wide();
    }
    switch (mode_) {
      case Mode::kU16: {
        Row16& r = n16_.emplace_back();
        r.k = k;
        CCBT_SIMD
        for (int l = 0; l < B; ++l) {
          r.c[l] = static_cast<std::uint16_t>(sum[l]);
        }
        return;
      }
      case Mode::kU32: {
        Row32& r = n32_.emplace_back();
        r.k = k;
        CCBT_SIMD
        for (int l = 0; l < B; ++l) {
          r.c[l] = static_cast<std::uint32_t>(sum[l]);
        }
        return;
      }
      case Mode::kWide: break;
    }
    Entry& e = wide_.emplace_back();
    e.key = unpack_key(k);
    for (int l = 0; l < B; ++l) LaneOps<B>::set_lane(e.cnt, l, sum[l]);
  }

  static void note_merged(const std::array<Count, B>& sum, FlatStats& st) {
    ++st.rows;
    for (int l = 0; l < B; ++l) {
      st.lanes_occupied += (sum[l] != 0);
      st.max_count = std::max(st.max_count, sum[l]);
    }
  }

  /// Stable LSD radix sort of `keys` on their bits [lo, lo + bits), one
  /// byte per pass; a pass whose byte is the same in every key is skipped.
  /// Small inputs take std::sort, which gives the same order as long as
  /// the bits below `lo` are unique and ascending in input order.
  static void radix_sort(std::vector<std::uint64_t>& keys,
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

  /// Order the bucket through 8-byte sort keys — the (v0, sig) bits that
  /// vary inside one bucket, above the row index — instead of moving whole
  /// rows, then sum each equal-key run exactly in 64 bits. A key with no
  /// duplicate (most of them) is copied through as is. A bucket too large
  /// to index that way sorts its rows directly.
  template <typename W>
  static void drain_narrow(std::vector<PackedFlatRowT<B, W>>& rows,
                           FlatRowsT& out, FlatStats& st) {
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
      const PackedFlatRowT<B, W>& first = rows[order[i] & idx_mask];
      std::size_t j = i + 1;
      while (j < n && rows[order[j] & idx_mask].k == first.k) ++j;
      if (j == i + 1) {
        out.push_row(first, st);
        i = j;
        continue;
      }
      std::array<Count, B> sum{};
      for (; i < j; ++i) {
        const PackedFlatRowT<B, W>& r = rows[order[i] & idx_mask];
        CCBT_SIMD
        for (int l = 0; l < B; ++l) sum[l] += r.c[l];
      }
      Count hi = 0;
      for (int l = 0; l < B; ++l) hi |= sum[l];
      out.push_merged(first.k, sum, hi);
      note_merged(sum, st);
    }
  }

  /// Append one row that needs no summing; a row of this buffer's width
  /// is copied as is, any other goes through push_merged.
  template <typename W>
  void push_row(const PackedFlatRowT<B, W>& r, FlatStats& st) {
    W hi = 0;
    W mx = 0;
    int occupied = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      hi |= r.c[l];
      mx = std::max(mx, r.c[l]);
      occupied += r.c[l] != 0;
    }
    ++st.rows;
    st.lanes_occupied += static_cast<std::uint64_t>(occupied);
    st.max_count = std::max(st.max_count, Count{mx});
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
    std::array<Count, B> sum;
    for (int l = 0; l < B; ++l) sum[l] = r.c[l];
    push_merged(r.k, sum, hi);
  }

  void drain_wide(FlatRowsT& out, FlatStats& st) {
    std::sort(wide_.begin(), wide_.end(), [](const Entry& a, const Entry& b) {
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
      Entry acc = wide_[i];
      for (++i; i < n && wide_[i].key == acc.key; ++i) {
        LaneOps<B>::add(acc.cnt, wide_[i].cnt);
      }
      std::array<Count, B> sum;
      for (int l = 0; l < B; ++l) sum[l] = LaneOps<B>::lane(acc.cnt, l);
      note_merged(sum, st);
      out.wide_.push_back(acc);
    }
  }

  void to_u32() {
    n32_.resize(n16_.size());
    for (std::size_t i = 0; i < n16_.size(); ++i) {
      n32_[i].k = n16_[i].k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) n32_[i].c[l] = n16_[i].c[l];
    }
    n16_.clear();
    mode_ = Mode::kU32;
  }

  void to_wide() {
    if (mode_ == Mode::kWide) return;
    const std::size_t n = size();
    wide_.resize(n);
    for (std::size_t i = 0; i < n; ++i) row(i, wide_[i]);
    n16_.clear();
    n32_.clear();
    mode_ = Mode::kWide;
  }

  void raise_to(Mode m) {
    if (mode_ >= m) return;
    if (m == Mode::kU32) {
      to_u32();
    } else {
      to_wide();
    }
  }

  Mode mode_ = Mode::kU16;
  std::vector<Row16> n16_;
  std::vector<Row32> n32_;
  std::vector<Entry> wide_;
};

/// A table being built born sorted (kByV1): frontier buckets are closed
/// one at a time in ascending vertex order, each sorted and deduplicated
/// locally. A contiguous vertex range can be built by its own part and
/// the parts concatenated in order (absorb); because every bucket is
/// independent and the final width is the widest any bucket needed, the
/// rows are the same however the vertex range was split.
template <int B>
class SortedBucketsT {
 public:
  using Mode = typename FlatRowsT<B>::Mode;

  /// `wide` keeps every row dense (lane compression off); `expect_rows`
  /// pre-sizes the rows so the table does not grow by copying.
  explicit SortedBucketsT(bool wide = false, std::size_t expect_rows = 0) {
    if (wide) rows_.reset(Mode::kWide);
    rows_.reserve(expect_rows);
  }

  /// Close the next vertex's bucket from the rows emitted into `scratch`
  /// (in any order, duplicates allowed); the caller resets the scratch.
  void close(FlatRowsT<B>& scratch) {
    emitted_rows_ += scratch.size();
    emitted_bytes_ += scratch.byte_size();
    const std::size_t before = rows_.size();
    scratch.drain_bucket_into(rows_, stats_);
    counts_.push_back(static_cast<std::uint32_t>(rows_.size() - before));
  }

  /// Append the buckets of the part covering the next vertex range.
  void absorb(SortedBucketsT&& next) {
    rows_.absorb(std::move(next.rows_));
    counts_.insert(counts_.end(), next.counts_.begin(), next.counts_.end());
    stats_.add(next.stats_);
    emitted_rows_ += next.emitted_rows_;
    emitted_bytes_ += next.emitted_bytes_;
  }

  /// Buckets closed so far (one per vertex).
  std::size_t buckets() const { return counts_.size(); }
  std::size_t size() const { return rows_.size(); }
  const FlatRowsT<B>& rows() const { return rows_; }
  FlatRowsT<B> take_rows() { return std::move(rows_); }
  const FlatStats& stats() const { return stats_; }
  std::uint64_t emitted_rows() const { return emitted_rows_; }
  std::uint64_t emitted_bytes() const { return emitted_bytes_; }

  /// CSR bucket offsets: bucket v occupies [off[v], off[v + 1]).
  std::vector<std::uint32_t> offsets() const {
    std::vector<std::uint32_t> off(counts_.size() + 1, 0);
    for (std::size_t v = 0; v < counts_.size(); ++v) {
      off[v + 1] = off[v] + counts_[v];
    }
    return off;
  }

 private:
  FlatRowsT<B> rows_;
  std::vector<std::uint32_t> counts_;
  FlatStats stats_;
  std::uint64_t emitted_rows_ = 0;
  std::uint64_t emitted_bytes_ = 0;
};

}  // namespace ccbt
