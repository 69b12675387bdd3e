#pragma once
// Packed flat rows — the storage of every table and every sink.
//
// A dense TableEntry is 32 bytes; a packed flat row is the packed 64-bit
// key (table_key.hpp: v0 | v1 | ... | sig, its vertex fields sized to the
// data graph by the rows' KeyLayout) plus its u64 count, 16 bytes (the
// compact row of Malík et al.). The engine builds every FlatRows in the
// layout of its data graph (KeyLayout::for_vertices), so on every graph
// below 2^14 vertices keys with tracked slots pack too. The buffer
// migrates to wide rows (TableEntry) on the first key its layout cannot
// pack (a slot past the layout's, a signature past 8 bits) and never on
// a count — the engine's correctness never depends on staying packed.
// Because the packed key is ordered as (v0, v1, v2, v3, sig), a raw u64
// compare inside one frontier bucket reproduces the projection table's
// kByV1 comparator exactly, and across buckets its kByV0 comparator.
//
// Readers see the rows through one of two views, PackedRows and WideRows,
// which share one interface; visit() hands the buffer's view to a
// generic reader, so each join is written once for both formats.
//
// Path primitives build their output born sorted: one frontier vertex w
// at a time, in ascending w, the rows landing on w are gathered into a
// scratch FlatRows, sorted and deduplicated locally with exact u64 run
// sums (drain_bucket_into), and appended to a SortedBuckets together with
// their bucket offset. The result is already sealed kByV1 — there is no
// global sort anywhere on the path-table build.
//
// The merge sinks and aggregate add their rows unsorted to one FlatRows
// (add) and sum equal keys in place with sum_duplicates(): at the end of
// each primitive that fills the sink, and whenever the sink passes the
// row budget. A summed sink is in full-key order, which is kByV0.
//
// LaneLayoutInfo and LaneTelemetry report the rows a bucket build
// deduplicated: how many, how many nonzero, and the largest count.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// The occupancy of one table's rows (ProjTable::layout()), gathered
/// while its buckets are deduplicated. `rows == 0` means "never observed"
/// (tables not built in packed flat rows).
struct LaneLayoutInfo {
  std::uint64_t rows = 0;            // distinct keys
  std::uint64_t lanes_occupied = 0;  // rows with a nonzero count
  Count max_count = 0;               // largest count
  bool packed = false;               // rows held in the packed flat layout

  /// Note one deduplicated row.
  void note(Count c) {
    ++rows;
    lanes_occupied += c != 0;
    max_count = std::max(max_count, c);
  }

  void add(const LaneLayoutInfo& o) {
    rows += o.rows;
    lanes_occupied += o.lanes_occupied;
    max_count = std::max(max_count, o.max_count);
  }

  double density() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(lanes_occupied) /
                           static_cast<double>(rows);
  }
};

/// Run-wide accumulation of LaneLayoutInfo over the tables the engines
/// note — the telemetry surfaced through ExecStats / DistStats
/// (BENCH_batch.json histograms).
struct LaneTelemetry {
  std::uint64_t rows = 0;
  std::uint64_t lanes_occupied = 0;
  std::uint64_t rows_packed = 0;  // rows held packed
  // Packed rows by the narrowest count word their table's largest count
  // fits: u16, u32, u64. Every packed row stores a u64 count; this only
  // reports how large the counts run.
  std::array<std::uint64_t, 3> width_rows{};

  void note(const LaneLayoutInfo& info) {
    if (info.rows == 0) return;
    rows += info.rows;
    lanes_occupied += info.lanes_occupied;
    if (info.packed) {
      rows_packed += info.rows;
      const int w = info.max_count <= 0xFFFFull       ? 0
                    : info.max_count <= 0xFFFFFFFFull ? 1
                                                      : 2;
      width_rows[w] += info.rows;
    }
  }

  double density() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(lanes_occupied) /
                           static_cast<double>(rows);
  }
};

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

/// `k` moved onto the frontier w: slot 1, and slot `track` when it is not
/// -1, set to w, and the signature set to `sig` — the key an extend
/// emits.
inline TableKey moved_key(TableKey k, VertexId w, int track, Signature sig) {
  k.v[1] = w;
  if (track >= 0) k.v[track] = w;
  k.sig = sig;
  return k;
}

// ------------------------------------------------------------ row views
// Two read-only views of rows, one per format, with one interface: a
// span of `Row`s (begin/end/size/[], sub(lo, hi) for a range of them),
// and for a row r: anchor(r) (slot 0, which must be set), slot(r, s)
// (kNoVertex when unset), sig(r), count(r), key(r) and entry(r), plus
// mover(to, w, track), the appender of extended rows, and kPacked, the
// format (telemetry reports it). The joins are
// templates over these views; FlatRows::visit, and through it
// ProjTable::visit, is the one place that picks a view.

template <typename R>
struct RowSpan {
  using Row = R;
  std::span<const R> rows;

  auto begin() const { return rows.begin(); }
  auto end() const { return rows.end(); }
  std::size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  const R& operator[](std::size_t i) const { return rows[i]; }
};

/// Packed rows, read in place through their KeyLayout.
struct PackedRows : RowSpan<PackedFlatRow> {
  static constexpr bool kPacked = true;
  KeyLayout lay;

  PackedRows sub(std::size_t lo, std::size_t hi) const {
    return {{rows.subspan(lo, hi - lo)}, lay};
  }
  VertexId anchor(const Row& r) const { return lay.v0(r.k); }
  VertexId slot(const Row& r, int s) const {
    if (s >= lay.slots()) return kNoVertex;
    const VertexId v = lay.field(r.k, s);
    return v == lay.none() ? kNoVertex : v;
  }
  static Signature sig(const Row& r) {
    return static_cast<Signature>(r.k & 0xFF);
  }
  static Count count(const Row& r) { return r.c; }
  TableKey key(const Row& r) const { return lay.unpack(r.k); }
  TableEntry entry(const Row& r) const { return {key(r), r.c}; }

  /// `append(sink, r, sig, c)` appends row r moved onto the frontier w
  /// (moved_key) with count c to `sink`, a FlatRows in layout `to`. When
  /// `to` is this layout and the moved key packs, it is the row's packed
  /// word with v1, the tracked field and the signature rewritten in
  /// registers; otherwise it goes through the decoded key.
  auto mover(KeyLayout to, VertexId w, int track) const {
    std::uint64_t rewritten = lay.field_mask(1) | 0xFF;
    std::uint64_t fields = std::uint64_t{w} << lay.shift(1);
    const bool fits = to == lay && track < lay.slots();
    if (track >= 0 && fits) {
      rewritten |= lay.field_mask(track);
      fields |= std::uint64_t{w} << lay.shift(track);
    }
    return [lay = lay, keep = ~rewritten, fields, fits, w, track](
               auto& sink, const Row& r, Signature sig, Count c) {
      if (fits && sig <= 0xFF) [[likely]] {
        sink.append_packed((r.k & keep) | fields | sig, c);
      } else {
        sink.append(moved_key(lay.unpack(r.k), w, track, sig), c);
      }
    };
  }
};

/// Wide rows (TableEntry), for keys that do not pack.
struct WideRows : RowSpan<TableEntry> {
  static constexpr bool kPacked = false;

  WideRows sub(std::size_t lo, std::size_t hi) const {
    return {{rows.subspan(lo, hi - lo)}};
  }
  static VertexId anchor(const Row& e) { return e.key.v[0]; }
  static VertexId slot(const Row& e, int s) { return e.key.v[s]; }
  static Signature sig(const Row& e) { return e.key.sig; }
  static Count count(const Row& e) { return e.cnt; }
  static const TableKey& key(const Row& e) { return e.key; }
  static const TableEntry& entry(const Row& e) { return e; }

  /// As PackedRows::mover, through the moved key, in any layout.
  static auto mover(KeyLayout, VertexId w, int track) {
    return [w, track](auto& sink, const Row& e, Signature sig, Count c) {
      sink.append(moved_key(e.key, w, track, sig), c);
    };
  }
};

class FlatRows {
 public:
  /// Rows packed in `layout`, the data graph's.
  explicit FlatRows(KeyLayout layout) : layout_(layout) {}

  /// The layout packed keys are in.
  KeyLayout layout() const { return layout_; }

  std::size_t size() const {
    return mode_ == Mode::kPacked ? packed_.size() : wide_.size();
  }
  bool empty() const { return size() == 0; }

  /// Call `f` with the view of the rows in their format — PackedRows
  /// while packed, WideRows once wide — and return what it returns.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    if (mode_ == Mode::kPacked) return f(PackedRows{{packed_}, layout_});
    return f(WideRows{{wide_}});
  }

  /// Bytes the rows occupy in the current representation.
  std::uint64_t byte_size() const {
    return mode_ == Mode::kPacked ? packed_.size() * sizeof(PackedFlatRow)
                                  : wide_.size() * sizeof(TableEntry);
  }

  /// Reserve room for n rows in the current representation. Untouched
  /// capacity costs address space, not memory.
  void reserve(std::size_t n) {
    if (mode_ == Mode::kPacked) {
      packed_.reserve(n);
    } else {
      wide_.reserve(n);
    }
  }

  /// Empty the buffer and restart it packed, keeping its capacity — the
  /// per-bucket scratch is reset once per frontier vertex.
  void reset() { reset(layout_); }

  /// reset() into `layout` — a thread's scratch may serve several graphs.
  void reset(KeyLayout layout) {
    packed_.clear();
    wide_.clear();
    mode_ = Mode::kPacked;
    layout_ = layout;
  }

  /// Append one emitted row; migrates the whole buffer to wide rows on
  /// the first unpackable key.
  void append(const TableKey& key, Count cnt) {
    std::uint64_t k = 0;
    if (mode_ == Mode::kPacked && layout_.try_pack(key, k)) {
      packed_.push_back({k, cnt});
      return;
    }
    to_wide();
    wide_.push_back({key, cnt});
  }

  /// Add one row to a sink: its count joins the last row's when the two
  /// keys are equal (the emissions of one merge group often share their
  /// key), otherwise the row is appended as by append(). sum_duplicates()
  /// sums the repeats that remain.
  void add(const TableKey& key, Count cnt) {
    std::uint64_t k = 0;
    if (mode_ == Mode::kPacked && layout_.try_pack(key, k)) {
      if (!packed_.empty() && packed_.back().k == k) {
        packed_.back().c += cnt;
        return;
      }
      packed_.push_back({k, cnt});
      return;
    }
    to_wide();
    if (!wide_.empty() && wide_.back().key == key) {
      wide_.back().cnt += cnt;
      return;
    }
    wide_.push_back({key, cnt});
  }

  /// Append a row under a key the caller packed in layout() — the extend
  /// hot path: a packed buffer takes it with a plain push.
  void append_packed(std::uint64_t k, Count c) {
    if (mode_ == Mode::kPacked) [[likely]] {
      packed_.push_back({k, c});
      return;
    }
    wide_.push_back({layout_.unpack(k), c});
  }

  /// Close one frontier bucket: sort this buffer's rows by full key (they
  /// all share one v1, so this is the kByV1 order inside the bucket) and
  /// append each equal-key run to `out`, summed in 64 bits (mod 2^64,
  /// as every count is). Both buffers share one layout; `out` goes wide
  /// when this buffer did. `st` notes the merged rows. This buffer is left
  /// for reset().
  void drain_bucket_into(FlatRows& out, LaneLayoutInfo& st);

  /// Sort the rows by full key, (v0, v1, v2, v3, sig), and sum each run
  /// of equal keys into one row, in 64 bits (mod 2^64, as every count
  /// is). Packed rows take an LSD radix sort over the key bytes that
  /// vary, wide rows a comparison sort; the rows stay in their
  /// representation. The sort's scratch is freed on return.
  void sum_duplicates();

  /// Visit every row as a decoded entry, in storage order.
  template <typename F>
  void for_each_entry(F&& f) const {
    visit([&](const auto& rows) {
      for (const auto& r : rows) f(rows.entry(r));
    });
  }

  /// Append another buffer's rows after this one's (concatenating the
  /// independently built vertex ranges of one table, in one layout): both
  /// go wide first when either is.
  void absorb(FlatRows&& o);

  /// Empty the buffer and release its memory.
  void clear() {
    reset();
    packed_.shrink_to_fit();
    wide_.shrink_to_fit();
  }

 private:
  /// Active row representation.
  enum class Mode : std::uint8_t { kPacked, kWide };

  void drain_packed(FlatRows& out, LaneLayoutInfo& st);
  void drain_wide(FlatRows& out, LaneLayoutInfo& st);
  void to_wide();

  Mode mode_ = Mode::kPacked;
  KeyLayout layout_;
  std::vector<PackedFlatRow> packed_;
  std::vector<TableEntry> wide_;
};

/// A table being built born sorted (kByV1): frontier buckets are closed
/// one at a time in ascending vertex order, each sorted and deduplicated
/// locally. A contiguous vertex range can be built by its own part and
/// the parts concatenated in order (absorb); because every bucket is
/// independent and the rows go wide when any bucket needed it, the rows
/// are the same however the vertex range was split.
class SortedBuckets {
 public:
  /// Buckets packed in `layout`, the data graph's. `expect_rows` pre-sizes
  /// the rows so the table does not grow by copying.
  explicit SortedBuckets(KeyLayout layout, std::size_t expect_rows = 0)
      : rows_(layout) {
    rows_.reserve(expect_rows);
  }

  /// Close the next vertex's bucket from the rows emitted into `scratch`
  /// (in any order, duplicates allowed; packed in layout() to stay
  /// packed); the caller resets the scratch.
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
  KeyLayout layout() const { return rows_.layout(); }
  const FlatRows& rows() const { return rows_; }
  FlatRows take_rows() { return std::move(rows_); }
  const LaneLayoutInfo& stats() const { return stats_; }
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
  LaneLayoutInfo stats_;
  std::uint64_t emitted_rows_ = 0;
  std::uint64_t emitted_bytes_ = 0;
};

}  // namespace ccbt
