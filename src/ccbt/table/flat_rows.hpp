#pragma once
// Narrow flat rows — the path tables' storage.
//
// A dense TableEntry is 32 bytes; a narrow flat row is the packed 64-bit
// key (table_key.hpp: v0:28 | v1:28 | sig:8) plus the count at the
// narrowest width that holds it, u16 or u32 (16 bytes either way, with
// padding). The width escalates for the whole buffer the first time a
// count outgrows it (u16 -> u32), and the buffer migrates to dense wide
// rows on the first unpackable key (a tracked slot >= 2, a signature past
// 8 bits) or u64-range count — the engine's correctness never depends on
// staying narrow. Because the packed key is ordered as (v0, v1, sig) and
// narrow keys never use slots 2-3, a raw u64 compare inside one frontier
// bucket reproduces the projection table's kByV1 comparator exactly.
//
// Path primitives build their output born sorted: one frontier vertex w
// at a time, in ascending w, the rows landing on w are gathered into a
// scratch FlatRows, sorted and deduplicated locally with exact u64 run
// sums (drain_bucket_into), and appended to a SortedBuckets together with
// their bucket offset. The result is already sealed kByV1 — there is no
// global sort anywhere on the path-table build.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// Accumulation-stage telemetry, one phase per path primitive
/// (ExecStats::accum): the rows the per-bucket sorts consumed and the
/// bytes they occupied. A fused extend_and_merge counts its extend's
/// phase but sorts no rows, so it adds to neither. The sharded, sparse
/// and fold counters described emission mechanisms this engine no longer
/// has and always read 0; bench_suite still reads them, so they leave
/// with the next change to the benchmark.
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

/// One narrow flat row: packed key + count at width W.
template <typename W>
struct PackedFlatRow {
  std::uint64_t k = 0;
  W c = 0;
};

/// What the run-merged rows of a table look like (its layout()
/// telemetry), gathered while the buckets are deduplicated.
struct FlatStats {
  std::uint64_t rows = 0;            // distinct keys
  std::uint64_t lanes_occupied = 0;  // merged rows with a nonzero count
  Count max_count = 0;               // largest merged count

  void add(const FlatStats& o) {
    rows += o.rows;
    lanes_occupied += o.lanes_occupied;
    max_count = std::max(max_count, o.max_count);
  }
};

class FlatRows {
 public:
  /// Active row representation; ordered so std::max picks the wider one.
  enum class Mode : std::uint8_t { kU16 = 0, kU32 = 1, kWide = 2 };

  using Row16 = PackedFlatRow<std::uint16_t>;
  using Row32 = PackedFlatRow<std::uint32_t>;

  FlatRows() = default;

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
    return wide_.size() * sizeof(TableEntry);
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
  /// narrow rows are off), keeping its capacity — the per-bucket scratch
  /// is reset once per frontier vertex.
  void reset(Mode start = Mode::kU16) {
    n16_.clear();
    n32_.clear();
    wide_.clear();
    mode_ = start;
  }

  /// Append one emitted row. Escalates the buffer width when the count
  /// outgrows it; migrates the whole buffer to wide rows on the first
  /// unpackable key or u64-range count.
  void append(const TableKey& key, Count cnt) {
    if (mode_ != Mode::kWide && packable_key(key) &&
        push_narrow(pack_key(key), cnt)) {
      return;
    }
    to_wide();
    wide_.push_back({key, cnt});
  }

  /// Append a u16 count under a caller-packed key — the all-16-bit
  /// extend hot path: a u16 buffer takes it with a plain push.
  void append_u16(std::uint64_t k, std::uint16_t c) {
    if (mode_ == Mode::kU16) [[likely]] {
      n16_.push_back({k, c});
      return;
    }
    append(unpack_key(k), c);
  }

  /// Close one frontier bucket: sort this buffer's rows by full key (they
  /// all share one v1, so this is the kByV1 order inside the bucket) and
  /// append each equal-key run to `out`, summed exactly in 64 bits. `out`
  /// widens when a sum outgrows its width or this buffer went wide; `st`
  /// gathers the merged rows' stats. This buffer is left for reset().
  void drain_bucket_into(FlatRows& out, FlatStats& st);

  TableKey key_at(std::size_t i) const {
    switch (mode_) {
      case Mode::kU16: return unpack_key(n16_[i].k);
      case Mode::kU32: return unpack_key(n32_[i].k);
      case Mode::kWide: break;
    }
    return wide_[i].key;
  }

  Count count_at(std::size_t i) const {
    switch (mode_) {
      case Mode::kU16: return n16_[i].c;
      case Mode::kU32: return n32_[i].c;
      case Mode::kWide: break;
    }
    return wide_[i].cnt;
  }

  /// Row i as a dense entry, written into `out`.
  void row(std::size_t i, TableEntry& out) const {
    out.key = key_at(i);
    out.cnt = count_at(i);
  }

  /// Visit every row as a dense entry, in storage order.
  template <typename F>
  void for_each_dense(F&& f) const {
    TableEntry tmp;
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      row(i, tmp);
      f(tmp);
    }
  }

  /// Append another buffer's rows after this one's (concatenating the
  /// independently built vertex ranges of one table): both are raised to
  /// the wider representation first.
  void absorb(FlatRows&& o);

  /// Convert to dense wide rows (in current order) and hand them over.
  std::vector<TableEntry> take_wide() {
    to_wide();
    std::vector<TableEntry> out = std::move(wide_);
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

 private:
  /// Push `cnt` as a narrow row, escalating u16 -> u32 when it needs it.
  /// False when even u32 is too narrow — the caller goes wide.
  bool push_narrow(std::uint64_t k, Count cnt) {
    if (mode_ == Mode::kU16) {
      if (cnt <= 0xFFFFull) {
        n16_.push_back({k, static_cast<std::uint16_t>(cnt)});
        return true;
      }
      if (cnt > 0xFFFFFFFFull) return false;
      to_u32();
    }
    if (cnt > 0xFFFFFFFFull) return false;
    n32_.push_back({k, static_cast<std::uint32_t>(cnt)});
    return true;
  }

  void push_merged(std::uint64_t k, Count sum);
  template <typename W>
  void push_row(const PackedFlatRow<W>& r, FlatStats& st);
  template <typename W>
  static void drain_narrow(std::vector<PackedFlatRow<W>>& rows,
                           FlatRows& out, FlatStats& st);
  void drain_wide(FlatRows& out, FlatStats& st);
  void to_u32();
  void to_wide();
  void raise_to(Mode m);

  Mode mode_ = Mode::kU16;
  std::vector<Row16> n16_;
  std::vector<Row32> n32_;
  std::vector<TableEntry> wide_;
};

/// A table being built born sorted (kByV1): frontier buckets are closed
/// one at a time in ascending vertex order, each sorted and deduplicated
/// locally. A contiguous vertex range can be built by its own part and
/// the parts concatenated in order (absorb); because every bucket is
/// independent and the final width is the widest any bucket needed, the
/// rows are the same however the vertex range was split.
class SortedBuckets {
 public:
  using Mode = FlatRows::Mode;

  /// `wide` keeps every row dense (narrow rows off); `expect_rows`
  /// pre-sizes the rows so the table does not grow by copying.
  explicit SortedBuckets(bool wide = false, std::size_t expect_rows = 0) {
    if (wide) rows_.reset(Mode::kWide);
    rows_.reserve(expect_rows);
  }

  /// Close the next vertex's bucket from the rows emitted into `scratch`
  /// (in any order, duplicates allowed); the caller resets the scratch.
  void close(FlatRows& scratch) {
    emitted_rows_ += scratch.size();
    emitted_bytes_ += scratch.byte_size();
    const std::size_t before = rows_.size();
    scratch.drain_bucket_into(rows_, stats_);
    counts_.push_back(static_cast<std::uint32_t>(rows_.size() - before));
  }

  /// Close the next `n` vertices' buckets empty.
  void skip(std::size_t n) { counts_.resize(counts_.size() + n, 0); }

  /// Append one row of a bucket some build already closed (sorted and
  /// deduplicated) as is: no sort, no run sums, no stats. The row's v1
  /// is its bucket; rows must come in kByV1 order, and the buckets they
  /// pass over stay empty.
  void append_sorted(const TableKey& key, Count cnt) {
    const VertexId v = key.v[1];
    counts_.resize(std::max<std::size_t>(counts_.size(), v + std::size_t{1}),
                   0);
    rows_.append(key, cnt);
    ++counts_[v];
  }

  /// Append the buckets of the part covering the next vertex range.
  void absorb(SortedBuckets&& next) {
    rows_.absorb(std::move(next.rows_));
    counts_.insert(counts_.end(), next.counts_.begin(), next.counts_.end());
    stats_.add(next.stats_);
    emitted_rows_ += next.emitted_rows_;
    emitted_bytes_ += next.emitted_bytes_;
  }

  /// Buckets closed so far (one per vertex).
  std::size_t buckets() const { return counts_.size(); }
  std::size_t size() const { return rows_.size(); }
  const FlatRows& rows() const { return rows_; }
  FlatRows take_rows() { return std::move(rows_); }
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
  FlatRows rows_;
  std::vector<std::uint32_t> counts_;
  FlatStats stats_;
  std::uint64_t emitted_rows_ = 0;
  std::uint64_t emitted_bytes_ = 0;
};

}  // namespace ccbt
