#pragma once
// Narrow flat accumulation rows — the batched (B > 1) hot-path sink.
//
// The graph-driven primitives emit rows without hashing and let the
// table's sorting seal consolidate duplicates. Before this layout the
// sink was a vector of dense TableEntryT<B> (88 bytes at B = 8), so the
// seal's counting partition, per-bucket sorts and merge pass all hauled
// 88-byte rows — the measured reason a batched execution lost wall clock
// to B = 1. A narrow flat row is the packed 64-bit key (table_key.hpp:
// v0:28 | v1:28 | sig:8) plus all B lane counts at the narrowest width
// that holds them:
//
//   u16: 8 + 2B bytes   (24 at B = 8 — 3.7x less sort traffic)
//   u32: 8 + 4B bytes   (40 at B = 8)
//
// The width escalates for the whole buffer the first time a count
// outgrows it (u16 -> u32), and the sink migrates to dense wide rows on
// the first unpackable key or u64-range count — the engine's correctness
// never depends on staying narrow. Because the packed key is ordered as
// (v0, v1, sig) and narrow keys never use slots 2-3, a raw u64 compare
// reproduces the projection table's comparators exactly: partitioning by
// a slot's bit field and sorting buckets by k gives the same row order
// the dense seal produces, and equal-k runs are exactly equal-TableKey
// runs. Run sums during the merge pass are computed in 64-bit, so the
// deduped counts are bit-identical to the dense path's.
//
// Emission takes one of two paths, bound once per accumulation phase by
// prepare_emit from what the producer hands it. A fresh u16 sink given
// a vertex domain shards: u16 rows land pre-bucketed in 64 shards cut
// over the high bits of v1, each with its own L1-sized combining cache,
// and whole same-v1 bursts go through a run handle (run_u16) that
// resolves the shard and cache slice once per burst; the cut is
// monotone in v1, so the shards hand the kByV1 seal its leading radix
// digits pre-sorted. A sharded phase that outgrows sparse_flip_rows()
// re-encodes its shards as sparse records. Every other sink (no usable
// domain, already-escalated rows) probes one global direct-mapped
// combining cache per append, and escalation out of u16 flattens the
// shards in place and continues on that probe path. The path is a pure
// performance choice: sealed tables are bit-identical
// (tests/test_accum_sharded.cpp).

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/table_key.hpp"

namespace ccbt {

namespace detail_emit {

/// Default row count at which a sharded phase flips from dense rows to
/// sparse records. Chosen from bench_accumulate: the sparse format's
/// seal (per-shard key/offset radix over cache-resident shard buffers)
/// and its thinner emission stream break even around ~1M rows (-4%
/// total wall) and win clearly beyond (-19% at 4M); below the crossover
/// the record decode pass is pure overhead.
inline constexpr std::size_t kDefaultSparseFlipRows = std::size_t{1} << 20;

inline std::atomic<std::size_t>& flip_state() {
  static std::atomic<std::size_t> state{kDefaultSparseFlipRows};
  return state;
}

}  // namespace detail_emit

/// Row count at which a sharded sink re-encodes its rows as sparse
/// records and keeps emitting records (read once per phase, at
/// prepare_emit).
inline std::size_t sparse_flip_rows() {
  return detail_emit::flip_state().load(std::memory_order_relaxed);
}

/// Override the dense-to-sparse flip threshold process-wide — the one
/// test hook on the B > 1 emission path: 0 makes every fresh sharded
/// sink sparse before its first emission, SIZE_MAX keeps every phase on
/// dense rows.
inline void set_sparse_flip_rows(std::size_t rows) {
  detail_emit::flip_state().store(rows, std::memory_order_relaxed);
}

/// Accumulation-stage telemetry, collected per phase from the reduced
/// sink before it seals (ExecStats::accum). The fold counters say how
/// much sort input the combining caches removed; the occupancy pair
/// says how evenly the shard cut spread the key space.
struct AccumTelemetry {
  std::uint64_t phases = 0;           // accumulation phases observed
  std::uint64_t sharded_phases = 0;   // phases run on v1-cut shards
  std::uint64_t sparse_phases = 0;    // phases emitting sparse records
  std::uint64_t rows = 0;             // rows handed to the seal
  std::uint64_t emit_bytes = 0;       // bytes those rows occupy pre-seal
  std::uint64_t combine_folds = 0;    // emissions folded into a live row
  std::uint64_t frontier_folds = 0;   // same-key bursts folded pre-emission
  std::uint64_t run_emits = 0;        // emissions via the run-bulk API
  std::uint64_t shards_occupied = 0;  // shards holding >= 1 row
  std::uint64_t shard_slots = 0;      // shards available (sharded phases)
  void add(const AccumTelemetry& o) {
    phases += o.phases;
    sharded_phases += o.sharded_phases;
    sparse_phases += o.sparse_phases;
    rows += o.rows;
    emit_bytes += o.emit_bytes;
    combine_folds += o.combine_folds;
    frontier_folds += o.frontier_folds;
    run_emits += o.run_emits;
    shards_occupied += o.shards_occupied;
    shard_slots += o.shard_slots;
  }
  double shard_occupancy() const {
    return shard_slots == 0 ? 0.0
                            : static_cast<double>(shards_occupied) /
                                  static_cast<double>(shard_slots);
  }
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

/// What one run-merged scan of sorted narrow rows observed (the seal's
/// layout-chooser inputs). Computed over equal-key runs, so it describes
/// the table *after* dedup even when called before it.
struct FlatStats {
  std::uint64_t rows = 0;            // distinct keys
  std::uint64_t lanes_occupied = 0;  // nonzero lanes over merged rows
  Count max_count = 0;               // largest merged lane count
};

template <int B>
class FlatRowsT {
 public:
  using Vec = typename LaneOps<B>::Vec;
  using Entry = TableEntryT<B>;

  /// Active row representation; ordered so std::max picks the wider one.
  enum class Mode : std::uint8_t { kU16 = 0, kU32 = 1, kWide = 2 };

  using Row16 = PackedFlatRowT<B, std::uint16_t>;

  /// Direct-mapped combining cache slot: packed key -> row index of its
  /// last appearance. A slot is only ever a hint — it is checked against
  /// the row it points at before any fold, so a stale, colliding or
  /// zero-filled slot is at worst a missed merge, never a wrong one.
  struct CombineSlot {
    std::uint64_t k = ~std::uint64_t{0};
    std::uint32_t idx = 0;
  };

  FlatRowsT() = default;

  std::size_t size() const {
    if (sharded_) return shard_rows_;
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

  /// Raw u16 rows (valid only while mode() == kU16). The extend fast
  /// path iterates these directly so sealed u16 tables stream into u16
  /// sinks without a dense round trip.
  const std::vector<PackedFlatRowT<B, std::uint16_t>>& rows_u16() const {
    return n16_;
  }

  /// Raw u32 rows (valid only while mode() == kU32) — the packed merge
  /// joins mixed-width sealed tables without a dense expansion.
  const std::vector<PackedFlatRowT<B, std::uint32_t>>& rows_u32() const {
    return n32_;
  }

  /// Pre-size the current row buffer (a lower-bound emission estimate
  /// from the producer saves the doubling-growth copies).
  void reserve_hint(std::size_t n) {
    if (sharded_) {
      // Spread the estimate across the shards; skip when the per-shard
      // share is too small to beat the doubling growth anyway.
      const std::size_t per = n >> kShardBits;
      if (per >= 64) {
        if (sparse_) {
          for (auto& buf : shard_recs_) buf.reserve(per * kSparseRowGuess);
        } else {
          for (auto& shard : shard16_) shard.reserve(per);
        }
      }
      return;
    }
    switch (mode_) {
      case Mode::kU16: n16_.reserve(n); return;
      case Mode::kU32: n32_.reserve(n); return;
      case Mode::kWide: break;
    }
    wide_.reserve(n);
  }

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
    if (sparse_) {
      std::uint64_t b = 0;
      for (const auto& buf : shard_recs_) b += buf.size();
      return b;
    }
    if (sharded_) return shard_rows_ * sizeof(Row16);
    switch (mode_) {
      case Mode::kU16: return n16_.size() * sizeof(n16_[0]);
      case Mode::kU32: return n32_.size() * sizeof(n32_[0]);
      case Mode::kWide: break;
    }
    return wide_.size() * sizeof(Entry);
  }

  /// Append one emitted row. Escalates the buffer width when a count
  /// outgrows it; migrates the whole buffer to wide rows on the first
  /// unpackable key or u64-range count.
  ///
  /// Duplicate keys re-emitted while still hot in the combining cache
  /// (joins emit them in bursts: sibling child entries collapsing to one
  /// signature, entries of one frontier bucket sharing an anchor) are
  /// summed into their existing row instead of growing the sort input —
  /// the measured duplicate factor of the Fig 15 workload is 1.3-1.8x.
  /// Sums are exact u64 adds, so seal-time counts are unchanged.
  void append(const TableKey& key, const Vec& cnt) {
    if (!prepared_) [[unlikely]] prepare_emit(0);
    if (mode_ != Mode::kWide && packable_key(key)) {
      // OR of the lanes bounds the max: any count above the width has a
      // high bit the OR keeps.
      Count hi = 0;
      for (int l = 0; l < B; ++l) hi |= LaneOps<B>::lane(cnt, l);
      const std::uint64_t k = pack_key(key);
      maybe_flip_to_sparse();
      if (sparse_) {
        if (hi <= 0xFFFFull) {
          sparse_emit_vec(k, cnt, ~LaneMask{0});
          return;
        }
        unsparse();  // oversized count: continue on the dense paths below
      }
      if (sharded_) {
        if (hi <= 0xFFFFull) {
          shard_emit_vec(k, cnt, ~LaneMask{0});
          return;
        }
        unshard();  // oversized count: continue on the probe path below
      }
      CombineSlot& slot = combine_[combine_hash(k)];
      if (mode_ == Mode::kU16) {
        if (slot.k == k && slot.idx < n16_.size() && n16_[slot.idx].k == k &&
            combine(n16_[slot.idx], cnt, std::uint64_t{0xFFFF})) {
          return;
        }
        if (hi <= 0xFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n16_.size());
          push(n16_, k, cnt);
          return;
        }
        if (hi <= 0xFFFFFFFFull) to_u32();
      }
      if (mode_ == Mode::kU32) {
        if (slot.k == k && slot.idx < n32_.size() && n32_[slot.idx].k == k &&
            combine(n32_[slot.idx], cnt, std::uint64_t{0xFFFFFFFF})) {
          return;
        }
        if (hi <= 0xFFFFFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n32_.size());
          push(n32_, k, cnt);
          return;
        }
      }
    }
    to_wide();
    wide_.push_back({key, cnt});
  }

  /// Append one emission that is `src` restricted to the lanes of `m`
  /// (zeros elsewhere), without materializing the dense masked vector —
  /// the extend hot loop emits several masked subsets of one source row.
  /// `src_hi` is the OR of ALL of src's lanes, computed once per source
  /// row by the caller: when it fits the current width every masked
  /// subset does too and the per-emission reduce is skipped; otherwise
  /// the exact masked OR decides (so one oversized-but-masked-off lane
  /// never escalates the buffer).
  void append_masked(const TableKey& key, const Vec& src, LaneMask m,
                     Count src_hi) {
    if (!prepared_) [[unlikely]] prepare_emit(0);
    if (mode_ != Mode::kWide && packable_key(key)) {
      Count hi = src_hi;
      if ((mode_ == Mode::kU16 && hi > 0xFFFFull) ||
          (mode_ == Mode::kU32 && hi > 0xFFFFFFFFull)) {
        hi = masked_or(src, m);
      }
      const std::uint64_t k = pack_key(key);
      maybe_flip_to_sparse();
      if (sparse_) {
        if (hi <= 0xFFFFull) {
          sparse_emit_vec(k, src, m);
          return;
        }
        unsparse();  // oversized count: continue on the dense paths below
      }
      if (sharded_) {
        if (hi <= 0xFFFFull) {
          shard_emit_vec(k, src, m);
          return;
        }
        unshard();  // oversized count: continue on the probe path below
      }
      CombineSlot& slot = combine_[combine_hash(k)];
      if (mode_ == Mode::kU16) {
        if (slot.k == k && slot.idx < n16_.size() && n16_[slot.idx].k == k &&
            combine_masked(n16_[slot.idx], src, m, std::uint64_t{0xFFFF})) {
          return;
        }
        if (hi <= 0xFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n16_.size());
          push_masked(n16_, k, src, m);
          return;
        }
        if (hi <= 0xFFFFFFFFull) to_u32();
      }
      if (mode_ == Mode::kU32) {
        if (slot.k == k && slot.idx < n32_.size() && n32_[slot.idx].k == k &&
            combine_masked(n32_[slot.idx], src, m,
                           std::uint64_t{0xFFFFFFFF})) {
          return;
        }
        if (hi <= 0xFFFFFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n32_.size());
          push_masked(n32_, k, src, m);
          return;
        }
      }
    }
    to_wide();
    wide_.push_back({key, LaneOps<B>::masked(src, m)});
  }

  /// Append a masked copy of a u16 source row under a caller-packed key
  /// — the all-16-bit extend hot path. A masked subset of u16 counts
  /// always fits u16, so there is no width decision at all while the
  /// sink is still in u16 mode; only a combining-cache sum can overflow,
  /// and that falls through to a duplicate push (merged at seal).
  void append_masked_u16(std::uint64_t k,
                         const PackedFlatRowT<B, std::uint16_t>& src,
                         LaneMask m) {
    if (mode_ == Mode::kU16) [[likely]] {
      if (!prepared_) [[unlikely]] prepare_emit(0);
      maybe_flip_to_sparse();
      if (sparse_) {
        const std::size_t s = shard_of(k);
        if (sparse_fold_or_push(shard_recs_[s], shard_slot(s, k), k, src,
                                m)) {
          ++shard_rec_rows_[s];
          ++shard_rows_;
        }
        return;
      }
      if (sharded_) {
        const std::size_t s = shard_of(k);
        fold_or_push(shard16_[s], shard_slot(s, k), k, src, m);
        return;
      }
      CombineSlot& slot = combine_[combine_hash(k)];
      if (slot.k == k && slot.idx < n16_.size() && n16_[slot.idx].k == k) {
        std::array<std::uint32_t, B> sum;
        std::uint32_t hi = 0;
        CCBT_SIMD
        for (int l = 0; l < B; ++l) {
          sum[l] = static_cast<std::uint32_t>(n16_[slot.idx].c[l]) +
                   (((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0});
          hi |= sum[l];
        }
        if (hi <= 0xFFFFu) {
          CCBT_SIMD
          for (int l = 0; l < B; ++l) {
            n16_[slot.idx].c[l] = static_cast<std::uint16_t>(sum[l]);
          }
          return;
        }
      }
      slot.k = k;
      slot.idx = static_cast<std::uint32_t>(n16_.size());
      PackedFlatRowT<B, std::uint16_t> r;
      r.k = k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) {
        r.c[l] = ((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0};
      }
      n16_.push_back(r);
      return;
    }
    // Escalated mid-phase by interleaved generic appends: expand the
    // source row and take the generic path.
    append_masked(unpack_key(k), expand_counts(src), m,
                  std::uint64_t{0xFFFF});
  }

  // --------------------------------------------- accumulation phases

  /// Bind this sink to its emission path for the coming phase.
  /// accumulate_flat calls this once per sink before its emission loop,
  /// which is what lets the per-row appends skip the old lazy
  /// combining-cache resize; a stray direct append still self-prepares
  /// through an [[unlikely]] guard with no domain, landing on the probe
  /// path.
  ///
  /// A fresh u16 sink with a usable vertex `domain` (0 < domain <
  /// kPacked28NoVertex) shards its emissions over v1 and arms the
  /// dense-to-sparse flip at sparse_flip_rows() (a threshold of 0 flips
  /// right here, before the first emission). Anything else — no domain
  /// to place the cut, rows already emitted or escalated — probes the
  /// global combining cache. Idempotent until clear().
  void prepare_emit(VertexId domain) {
    if (prepared_) return;
    prepared_ = true;
    if (sharded_) {
      // Still holding sharded rows from a phase whose caches were
      // dropped: keep the cut (and the row format), just stand the
      // shard caches back up.
      if (shard_combine_.empty()) {
        shard_combine_.assign(kShardCount << kShardCombineBits,
                              CombineSlot{});
      }
      return;
    }
    if (mode_ == Mode::kU16 && empty() && domain > 0 &&
        domain < kPacked28NoVertex) {
      sharded_ = true;
      // Cut the top kShardBits of the domain's occupied bit range, so
      // the shards split any domain evenly and the shard index is
      // monotone in v1 (shard concatenation = ascending-v1 blocks).
      shard_shift_ = std::max(
          0, static_cast<int>(std::bit_width(
                 static_cast<std::uint32_t>(domain - 1))) -
                 kShardBits);
      shard16_.resize(kShardCount);
      shard_combine_.assign(kShardCount << kShardCombineBits,
                            CombineSlot{});
      sparse_flip_at_ = sparse_flip_rows();
      maybe_flip_to_sparse();
      return;
    }
    if (combine_.empty()) combine_.resize(kCombineSlots);
  }

  /// True while emissions are landing in v1-cut shards (u16 only; any
  /// escalation or wide absorb flattens and clears this).
  bool sharded() const { return sharded_; }

  /// True while emissions are landing as variable-length sparse records
  /// (sharded u16 sinks only; any escalation or mixed absorb decodes and
  /// clears this).
  /// The extend loop keys its frontier-side dedup on this.
  bool sparse() const { return sparse_; }

  /// Credit same-key folds the producer performed before emitting
  /// (frontier-side dedup in the extend loop).
  void note_frontier_folds(std::uint64_t n) { frontier_folds_ += n; }

  /// A run handle for the run-bulk emission path: one shard's storage
  /// (fixed-stride row vector, or the sparse record buffer plus its row
  /// counter) and its combining-cache slice, resolved once for a whole
  /// same-v1 emission run (the extend loop's per-neighbor burst) so the
  /// per-row cost is one L1-resident probe and a push — no mode test,
  /// no shard select, no prepare guard. Invalid when the sink is not
  /// sharded; any generic append that escalates the sink invalidates
  /// outstanding handles, so callers re-acquire after one.
  struct RunU16 {
    std::vector<Row16>* rows = nullptr;
    std::vector<std::uint8_t>* buf = nullptr;
    CombineSlot* slots = nullptr;
    std::uint32_t* sp_rows = nullptr;
    bool valid() const { return rows != nullptr || buf != nullptr; }
  };

  /// Begin a same-v1 run of up to `hint` emissions. Reserves once for
  /// the whole run, keeping geometric growth (never a creeping
  /// exact-fit reserve that would degrade pushes to O(n^2) copying).
  RunU16 run_u16(VertexId v1, std::size_t hint) {
    if (!prepared_) [[unlikely]] prepare_emit(0);
    if (!sharded_) return {};
    maybe_flip_to_sparse();
    const std::size_t s =
        std::min<std::size_t>(std::size_t{v1} >> shard_shift_,
                              kShardCount - 1);
    CombineSlot* slots = shard_combine_.data() + (s << kShardCombineBits);
    if (sparse_) {
      auto& buf = shard_recs_[s];
      const std::size_t want = hint * kSparseRowGuess;
      if (buf.capacity() - buf.size() < want) {
        buf.reserve(std::max(buf.size() + want, 2 * buf.capacity()));
      }
      return {nullptr, &buf, slots, &shard_rec_rows_[s]};
    }
    auto& rows = shard16_[s];
    if (rows.capacity() - rows.size() < hint) {
      rows.reserve(std::max(rows.size() + hint, 2 * rows.capacity()));
    }
    return {&rows, nullptr, slots, nullptr};
  }

  /// Emit one masked u16 row through a valid run handle. All emissions
  /// of the run must share the v1 the handle was acquired for.
  void run_append_u16(const RunU16& run, std::uint64_t k, const Row16& src,
                      LaneMask m) {
    ++run_emits_;
    if (run.buf != nullptr) {
      if (sparse_fold_or_push(*run.buf, run.slots[shard_combine_hash(k)], k,
                              src, m)) {
        ++*run.sp_rows;
        ++shard_rows_;
      }
      return;
    }
    fold_or_push(*run.rows, run.slots[shard_combine_hash(k)], k, src, m);
  }

  /// Prefetch the combining-cache slot `k` will probe. The probe-path
  /// extend loop queues a small tile of emissions and prefetches each
  /// slot at enqueue time, so the dependent slot load in
  /// append_masked_u16 is in flight a tile ahead of its use.
  void prefetch_combine(std::uint64_t k) const {
    if (!combine_.empty()) {
      __builtin_prefetch(&combine_[combine_hash(k)], 1, 1);
    }
  }

  /// Flatten mid-accumulation sharded and/or sparse storage in place
  /// (storage order, no sort, rows stay unsealed) so the indexed row
  /// accessors work — the per-row join primitives consume some tables
  /// without ever sealing them (variable-stride sparse records carry no
  /// row index at all until decoded). Drops the emission caches; the
  /// next append re-prepares the sink. No-op on plain flat storage.
  void ensure_flat() {
    if (!sparse_ && !sharded_) return;
    unsparse();
    flatten_shards();
    prepared_ = false;
  }

  /// Fold this sink's accumulation counters (and shard occupancy) into
  /// `t` — once per phase, after the per-thread reduction and before
  /// the seal flattens the shards.
  void collect_telemetry(AccumTelemetry& t) const {
    ++t.phases;
    t.rows += size();
    t.emit_bytes += byte_size();
    t.combine_folds += combine_folds_;
    t.frontier_folds += frontier_folds_;
    t.run_emits += run_emits_;
    if (sparse_) ++t.sparse_phases;
    if (sharded_) {
      ++t.sharded_phases;
      t.shard_slots += kShardCount;
      if (sparse_) {
        for (const auto& buf : shard_recs_) {
          t.shards_occupied += static_cast<std::uint64_t>(!buf.empty());
        }
      } else {
        for (const auto& shard : shard16_) {
          t.shards_occupied += static_cast<std::uint64_t>(!shard.empty());
        }
      }
    }
  }

  /// Visit every row as a dense entry, in storage order. Works in every
  /// representation including mid-accumulation sharded or sparse
  /// storage, where the indexed accessors below are unavailable (an
  /// unsealed root table's lane totals read through this).
  template <typename F>
  void for_each_dense(F&& f) const {
    Entry tmp;
    auto visit16 = [&](std::uint64_t k, const Row16& r) {
      tmp.key = unpack_key(k);
      tmp.cnt = expand_counts(r);
      f(tmp);
    };
    if (sparse_) {
      for (const auto& buf : shard_recs_) sparse_scan(buf, visit16);
      return;
    }
    if (sharded_) {
      for (const auto& shard : shard16_) {
        for (const Row16& r : shard) visit16(r.k, r);
      }
      return;
    }
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      row(i, tmp);
      f(tmp);
    }
  }

  /// Largest value of the packed key's `slot` field over all rows,
  /// unpacked (the all-ones field reads back as kNoVertex) — domain
  /// detection; shard-aware, unlike key_at.
  VertexId max_slot_value(int slot) const {
    VertexId mx = 0;
    auto fold = [&](std::uint64_t k) {
      const std::uint32_t b = slot_bits(k, slot);
      mx = std::max(mx, b == kPacked28NoVertex ? kNoVertex : b);
    };
    if (sparse_) {
      for (const auto& buf : shard_recs_) sparse_scan_keys(buf, fold);
      return mx;
    }
    if (sharded_) {
      for (const auto& shard : shard16_) {
        for (const Row16& r : shard) fold(r.k);
      }
      return mx;
    }
    switch (mode_) {
      case Mode::kU16:
        for (const Row16& r : n16_) fold(r.k);
        return mx;
      case Mode::kU32:
        for (const auto& r : n32_) fold(r.k);
        return mx;
      case Mode::kWide: break;
    }
    for (const Entry& e : wide_) mx = std::max(mx, e.key.v[slot]);
    return mx;
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
    switch (mode_) {
      case Mode::kU16:
        out.key = unpack_key(n16_[i].k);
        out.cnt = expand_counts(n16_[i]);
        return;
      case Mode::kU32:
        out.key = unpack_key(n32_[i].k);
        out.cnt = expand_counts(n32_[i]);
        return;
      case Mode::kWide: break;
    }
    out = wide_[i];
  }

  /// Merge another sink's rows (the per-thread reduction): same-cut
  /// sharded sinks concatenate shard-wise (keeping the sharded seal);
  /// everything else is raised to the wider flat representation, then
  /// concatenated. Accumulation counters always carry over.
  void absorb(FlatRowsT&& o) {
    combine_folds_ += o.combine_folds_;
    run_emits_ += o.run_emits_;
    frontier_folds_ += o.frontier_folds_;
    o.combine_folds_ = 0;
    o.run_emits_ = 0;
    o.frontier_folds_ = 0;
    if (o.empty()) return;
    if (empty()) {
      const std::uint64_t folds = combine_folds_;
      const std::uint64_t runs = run_emits_;
      const std::uint64_t front = frontier_folds_;
      *this = std::move(o);
      combine_folds_ = folds;
      run_emits_ = runs;
      frontier_folds_ = front;
      return;
    }
    if (sparse_ && o.sparse_ && shard_shift_ == o.shard_shift_) {
      // Same-cut sparse sinks concatenate byte-wise per shard; this
      // sink's cache offsets stay valid because the other's records land
      // strictly after them.
      for (std::size_t s = 0; s < kShardCount; ++s) {
        auto& dst = shard_recs_[s];
        auto& src = o.shard_recs_[s];
        dst.insert(dst.end(), src.begin(), src.end());
        shard_rec_rows_[s] += o.shard_rec_rows_[s];
      }
      shard_rows_ += o.shard_rows_;
      o.clear();
      return;
    }
    if (sparse_) unsparse();
    if (o.sparse_) o.unsparse();
    if (sharded_ && o.sharded_ && shard_shift_ == o.shard_shift_) {
      for (std::size_t s = 0; s < kShardCount; ++s) {
        auto& dst = shard16_[s];
        auto& src = o.shard16_[s];
        dst.insert(dst.end(), src.begin(), src.end());
      }
      shard_rows_ += o.shard_rows_;
      o.clear();
      return;
    }
    if (sharded_) unshard();
    if (o.sharded_) o.unshard();
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
        wide_.insert(wide_.end(), std::make_move_iterator(o.wide_.begin()),
                     std::make_move_iterator(o.wide_.end()));
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

  // ------------------------------------------------------------- sealing

  /// Sort the narrow rows into the dense seal's order for `slot` (the
  /// packed key's grouping field first, then the raw packed key — the
  /// same row order the dense seal's comparators produce) with an LSD
  /// radix sort over the slot-permuted packed key. Returns false (rows
  /// untouched) when a slot value falls outside [0, domain) — including
  /// kNoVertex, whose packed pattern is the all-ones field — or when the
  /// rows are wide; the caller falls back to the dense path. A sharded
  /// sink always leaves this flattened: the slot-1 seal sorts shard by
  /// shard (the shard blocks are already ascending-v1, so concatenating
  /// the per-shard sorts IS the global order and the radix passes above
  /// shard_shift_ never run); any other slot flattens first and sorts
  /// globally.
  ///
  /// Sparse records keep the per-shard variable-stride seal when they
  /// can: each shard sorts (sort key, record offset) pairs and
  /// gather-decodes every record once into its segment of the flattened
  /// buffer, the gather staying inside one cache-resident shard buffer.
  /// Small tables, non-v1 slots and shard buffers too large for 32-bit
  /// offsets decode in place first and take the dense route; either way
  /// the sealed rows are exactly the rows the dense format produces.
  bool sort_by_slot(int slot, VertexId domain) {
    drop_combine();
    if (sparse_) {
      bool offsets_fit = true;
      for (const auto& b : shard_recs_) {
        offsets_fit = offsets_fit &&
                      b.size() <= std::numeric_limits<std::uint32_t>::max();
      }
      // 8x below the dense sharded cutover, matching the per-shard
      // std::sort threshold.
      if (offsets_fit && slot == 1 &&
          shard_rows_ >= kShardCount * 4 * (kRadixMinRows / 8)) {
        return sort_sparse_sharded_v1(domain);
      }
      unsparse();
    }
    if (sharded_) {
      if (slot == 1) return sort_sharded_by_v1(domain);
      flatten_shards();
    }
    switch (mode_) {
      case Mode::kU16: return sort_radix_impl(n16_, slot, domain);
      case Mode::kU32: return sort_radix_impl(n32_, slot, domain);
      case Mode::kWide: break;
    }
    return false;
  }

  /// Reorder rows [lo, hi) by DESCENDING rank of the packed key's slot-0
  /// vertex (ranks indexed by vertex id, injective), breaking the full-key
  /// order inside the range — ProjTableT::rank_partition_buckets uses this
  /// on already-deduped buckets so anchor-rank probes can stop at a
  /// partition point. No-op for wide rows.
  void sort_range_by_rank_desc(std::size_t lo, std::size_t hi,
                               std::span<const std::uint32_t> ranks) {
    auto by_rank = [&](auto& rows) {
      std::sort(rows.begin() + static_cast<std::ptrdiff_t>(lo),
                rows.begin() + static_cast<std::ptrdiff_t>(hi),
                [ranks](const auto& a, const auto& b) {
                  return ranks[a.k >> 36] > ranks[b.k >> 36];
                });
    };
    switch (mode_) {
      case Mode::kU16: by_rank(n16_); return;
      case Mode::kU32: by_rank(n32_); return;
      case Mode::kWide: break;
    }
  }

  /// Run-merged stats over sorted rows (each equal-key run counted once,
  /// with its lane sums). Precondition: sorted by full key.
  FlatStats scan() const {
    switch (mode_) {
      case Mode::kU16: return scan_impl(n16_);
      case Mode::kU32: return scan_impl(n32_);
      case Mode::kWide: break;
    }
    return scan_wide();
  }

  /// Sum runs of equal keys in place (after sort_by_slot). Run sums are
  /// 64-bit, so merged counts match the dense merge bit for bit; the
  /// buffer escalates to the width the merged maximum needs first (wide
  /// in the u64 case — check narrow() afterwards). Returns the scan the
  /// escalation decision was made from.
  FlatStats merge_duplicates() {
    drop_combine();
    const FlatStats st = scan();
    const PayloadWidth want = choose_payload_width(st.max_count);
    if (mode_ == Mode::kU16 && want != PayloadWidth::kU16) {
      if (want == PayloadWidth::kU32) {
        to_u32();
      } else {
        to_wide();
      }
    } else if (mode_ == Mode::kU32 && want == PayloadWidth::kU64) {
      to_wide();
    }
    switch (mode_) {
      case Mode::kU16: merge_impl(n16_); return st;
      case Mode::kU32: merge_impl(n32_); return st;
      case Mode::kWide: break;
    }
    merge_wide();
    return st;
  }

  void clear() {
    n16_.clear();
    n16_.shrink_to_fit();
    n32_.clear();
    n32_.shrink_to_fit();
    wide_.clear();
    wide_.shrink_to_fit();
    shard16_.clear();
    shard16_.shrink_to_fit();
    shard_recs_.clear();
    shard_recs_.shrink_to_fit();
    shard_rec_rows_.clear();
    shard_rec_rows_.shrink_to_fit();
    sparse_ = false;
    sparse_flip_at_ = kNoSparseFlip;
    shard_rows_ = 0;
    sharded_ = false;
    shard_shift_ = 0;
    drop_combine();
    combine_folds_ = 0;
    run_emits_ = 0;
    frontier_folds_ = 0;
    mode_ = Mode::kU16;
  }

  /// Release the combining caches (sealed tables must not carry them).
  /// Also un-prepares the sink: the next phase re-binds its path.
  void drop_combine() {
    combine_.clear();
    combine_.shrink_to_fit();
    shard_combine_.clear();
    shard_combine_.shrink_to_fit();
    prepared_ = false;
  }

 private:
  // Global combining cache: 32K slots (384 KiB) — bigger than the
  // emission bursts that produce duplicates, small enough to stay
  // L2-resident. Dropped at seal time.
  static constexpr int kCombineBits = 15;
  static constexpr std::size_t kCombineSlots = std::size_t{1}
                                               << kCombineBits;

  static std::size_t combine_hash(std::uint64_t k) {
    return (k * 0x9E3779B97F4A7C15ull) >> (64 - kCombineBits);
  }

  // Sharded emission: 64 shards cut over the packed v1 field, each with
  // its own 512-slot combining-cache slice (6 KiB — L1-resident for
  // the duration of a same-v1 burst; 64 x 6 KiB = the same 384 KiB
  // footprint as the global cache, but only one slice is hot at a
  // time). v1 is the cut because the extend loop emits per-neighbor
  // bursts that share v1 exactly, and slot-1 is the most common first
  // seal order.
  static constexpr int kShardBits = 6;
  static constexpr std::size_t kShardCount = std::size_t{1} << kShardBits;
  static constexpr int kShardCombineBits = 9;

  static std::size_t shard_combine_hash(std::uint64_t k) {
    return (k * 0x9E3779B97F4A7C15ull) >> (64 - kShardCombineBits);
  }

  std::size_t shard_of(std::uint64_t k) const {
    const std::uint32_t v1 =
        static_cast<std::uint32_t>(k >> 8) & kPacked28NoVertex;
    // Out-of-domain v1 (kNoVertex's all-ones field) clamps to the last
    // shard; the seal's validation rejects it there, exactly as the
    // global sort would.
    return std::min<std::size_t>(std::size_t{v1} >> shard_shift_,
                                 kShardCount - 1);
  }

  CombineSlot& shard_slot(std::size_t s, std::uint64_t k) {
    return shard_combine_[(s << kShardCombineBits) | shard_combine_hash(k)];
  }

  /// Shard-side fold-or-push of a masked u16 source row: sum into the
  /// slot-hinted row while it stays u16, else push a duplicate (merged
  /// at seal) and move the hint.
  void fold_or_push(std::vector<Row16>& rows, CombineSlot& slot,
                    std::uint64_t k, const Row16& src, LaneMask m) {
    if (slot.k == k && slot.idx < rows.size() && rows[slot.idx].k == k) {
      std::array<std::uint32_t, B> sum;
      std::uint32_t hi = 0;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) {
        sum[l] = static_cast<std::uint32_t>(rows[slot.idx].c[l]) +
                 (((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0});
        hi |= sum[l];
      }
      if (hi <= 0xFFFFu) {
        CCBT_SIMD
        for (int l = 0; l < B; ++l) {
          rows[slot.idx].c[l] = static_cast<std::uint16_t>(sum[l]);
        }
        ++combine_folds_;
        return;
      }
    }
    slot.k = k;
    slot.idx = static_cast<std::uint32_t>(rows.size());
    Row16 r;
    r.k = k;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      r.c[l] = ((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0};
    }
    rows.push_back(r);
    ++shard_rows_;
  }

  /// Shard-side emission of a masked dense vector already known to fit
  /// u16 (the generic appends' sharded branch).
  void shard_emit_vec(std::uint64_t k, const Vec& src, LaneMask m) {
    const std::size_t s = shard_of(k);
    auto& rows = shard16_[s];
    CombineSlot& slot = shard_slot(s, k);
    if (slot.k == k && slot.idx < rows.size() && rows[slot.idx].k == k &&
        combine_masked(rows[slot.idx], src, m, std::uint64_t{0xFFFF})) {
      ++combine_folds_;
      return;
    }
    slot.k = k;
    slot.idx = static_cast<std::uint32_t>(rows.size());
    push_masked(rows, k, src, m);
    ++shard_rows_;
  }

  // ------------------------------------------- sparse emission records
  //
  // A sparse record is [u64 key][u8 occupancy][u16 per occupied lane],
  // 9 + 2*popcount(occ) bytes — ~11-12 at the Fig 15 workload's ~0.15
  // lane density vs the 8 + 2B fixed-stride row. Zero-valued lanes are
  // simply not stored (they contribute nothing to a seal-time run sum),
  // and an all-zero emission keeps its 9-byte key record so the set of
  // sealed keys matches the dense format exactly. Records exist only in
  // u16 mode; combining-cache slots hold byte offsets instead of row
  // indices while the format is active.

  static_assert(B <= 8, "sparse occupancy is a single byte");

  // Pre-reserve / size-hint guess, bytes per record.
  static constexpr std::size_t kSparseRowGuess = 12;

  static std::uint64_t load_u64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static std::uint16_t load_u16(const std::uint8_t* p) {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static void store_u64(std::uint8_t* p, std::uint64_t v) {
    std::memcpy(p, &v, sizeof(v));
  }
  static void store_u16(std::uint8_t* p, std::uint16_t v) {
    std::memcpy(p, &v, sizeof(v));
  }

  /// Visit every record of a sparse buffer as (key, decoded u16 row).
  template <typename F>
  static void sparse_scan(const std::vector<std::uint8_t>& buf, F&& f) {
    const std::uint8_t* p = buf.data();
    const std::uint8_t* const end = p + buf.size();
    Row16 r;
    while (p < end) {
      r.k = load_u64(p);
      const std::uint32_t occ = p[8];
      p += 9;
      r.c.fill(0);
      for (std::uint32_t b = occ; b != 0; b &= b - 1) {
        r.c[std::countr_zero(b)] = load_u16(p);
        p += 2;
      }
      f(r.k, r);
    }
  }

  /// Visit every record's key only (domain scans skip the counts).
  template <typename F>
  static void sparse_scan_keys(const std::vector<std::uint8_t>& buf,
                               F&& f) {
    const std::uint8_t* p = buf.data();
    const std::uint8_t* const end = p + buf.size();
    while (p < end) {
      f(load_u64(p));
      p += 9 + 2 * std::popcount(std::uint32_t{p[8]});
    }
  }

  /// Decode the record at byte offset `off` into a fixed-stride row.
  static void sparse_decode_at(const std::uint8_t* base, std::uint32_t off,
                               Row16& r) {
    const std::uint8_t* p = base + off;
    r.k = load_u64(p);
    const std::uint32_t occ = p[8];
    p += 9;
    r.c.fill(0);
    for (std::uint32_t b = occ; b != 0; b &= b - 1) {
      r.c[std::countr_zero(b)] = load_u16(p);
      p += 2;
    }
  }

  /// Append a new sparse record for the masked lanes of `src` and point
  /// the cache slot at it (invalidating the hint if the offset outgrows
  /// the slot's 32 bits — a missed fold, never a wrong one).
  /// Occupancy of the masked row: bit l set when lane l is live and
  /// nonzero — the byte every sparse record stores. Kept as a plain
  /// reduction the vectorizer handles; this runs once per emission on
  /// the sparse hot path.
  static std::uint32_t sparse_occ(const Row16& src, LaneMask m) {
    std::uint32_t occ = 0;
    for (int l = 0; l < B; ++l) {
      occ |= static_cast<std::uint32_t>(src.c[l] != 0) << l;
    }
    return occ & m;
  }

  void sparse_push(std::vector<std::uint8_t>& buf, CombineSlot& slot,
                   std::uint64_t k, const Row16& src, LaneMask m) {
    const std::uint32_t occ = sparse_occ(src, m);
    const std::size_t at = buf.size();
    buf.resize(at + 9 + 2 * std::popcount(occ));
    std::uint8_t* p = buf.data() + at;
    store_u64(p, k);
    p[8] = static_cast<std::uint8_t>(occ);
    p += 9;
    for (std::uint32_t b = occ; b != 0; b &= b - 1) {
      store_u16(p, src.c[std::countr_zero(b)]);
      p += 2;
    }
    if (at <= std::numeric_limits<std::uint32_t>::max()) [[likely]] {
      slot.k = k;
      slot.idx = static_cast<std::uint32_t>(at);
    } else {
      slot.k = ~std::uint64_t{0};
    }
  }

  /// Sparse fold-or-push: sum the masked lanes into the slot-hinted
  /// record when its occupancy covers them and every sum stays u16;
  /// otherwise push a duplicate record (merged at seal). Returns true
  /// when a new record was pushed (callers keep the row counters).
  bool sparse_fold_or_push(std::vector<std::uint8_t>& buf,
                           CombineSlot& slot, std::uint64_t k,
                           const Row16& src, LaneMask m) {
    if (slot.k == k && std::size_t{slot.idx} + 9 <= buf.size() &&
        load_u64(buf.data() + slot.idx) == k) {
      std::uint8_t* const rec = buf.data() + slot.idx;
      const std::uint32_t occ = rec[8];
      const std::uint32_t want = sparse_occ(src, m);
      if ((want & ~occ) == 0) {
        // All-or-nothing: compute every merged lane before writing any.
        std::uint8_t* const counts = rec + 9;
        std::array<std::uint32_t, 8> sum;
        std::array<std::uint8_t, 8> pos;
        int nl = 0;
        std::uint32_t hi = 0;
        for (std::uint32_t b = want; b != 0; b &= b - 1) {
          const int l = std::countr_zero(b);
          const int pi = std::popcount(occ & ((1u << l) - 1));
          const std::uint32_t s =
              load_u16(counts + 2 * pi) + std::uint32_t{src.c[l]};
          sum[nl] = s;
          pos[nl] = static_cast<std::uint8_t>(pi);
          ++nl;
          hi |= s;
        }
        if (hi <= 0xFFFFu) {
          for (int i = 0; i < nl; ++i) {
            store_u16(counts + 2 * pos[i],
                      static_cast<std::uint16_t>(sum[i]));
          }
          ++combine_folds_;
          return false;
        }
      }
    }
    sparse_push(buf, slot, k, src, m);
    return true;
  }

  /// Sparse emission of a masked dense vector already known to fit u16
  /// (the generic appends' sparse branch).
  void sparse_emit_vec(std::uint64_t k, const Vec& src, LaneMask m) {
    Row16 r;
    r.k = k;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      r.c[l] = static_cast<std::uint16_t>(
          ((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l) : Count{0});
    }
    const std::size_t s = shard_of(k);
    if (sparse_fold_or_push(shard_recs_[s], shard_slot(s, k), k, r,
                            ~LaneMask{0})) {
      ++shard_rec_rows_[s];
      ++shard_rows_;
    }
  }

  /// Flip a dense sharded phase to sparse records once it reaches the
  /// armed row count (at prepare time when the threshold is 0).
  void maybe_flip_to_sparse() {
    if (sharded_ && !sparse_ && shard_rows_ >= sparse_flip_at_)
      [[unlikely]] {
      flip_shards_to_sparse();
    }
  }

  /// Mid-phase flip: the phase has outgrown the regime where
  /// fixed-stride rows are cheaper, so re-encode the dense shard rows
  /// as sparse records — per shard, in row order, which keeps the
  /// decoded row sequence (and therefore the sealed table) bit-identical
  /// to an all-dense run — and emit sparse records from here on.
  void flip_shards_to_sparse() {
    sparse_flip_at_ = kNoSparseFlip;
    shard_recs_.resize(kShardCount);
    shard_rec_rows_.assign(kShardCount, 0);
    // Dense combine slots hold row indices, sparse ones byte offsets:
    // reset rather than translate — sparse_push below re-seeds the slot
    // of every re-encoded row, so the cache stays warm across the flip.
    if (shard_combine_.empty()) {
      shard_combine_.assign(kShardCount << kShardCombineBits,
                            CombineSlot{});
    } else {
      std::fill(shard_combine_.begin(), shard_combine_.end(),
                CombineSlot{});
    }
    for (std::size_t s = 0; s < kShardCount; ++s) {
      auto& rows = shard16_[s];
      auto& buf = shard_recs_[s];
      buf.reserve(rows.size() * kSparseRowGuess);
      for (const Row16& r : rows) {
        sparse_push(buf, shard_slot(s, r.k), r.k, r, ~LaneMask{0});
      }
      shard_rec_rows_[s] = static_cast<std::uint32_t>(rows.size());
      rows.clear();
      rows.shrink_to_fit();
    }
    shard16_.clear();
    shard16_.shrink_to_fit();
    sparse_ = true;
  }

  /// Decode sparse records into fixed-stride u16 storage in place
  /// (storage order, rows stay unsealed) and leave the sparse format.
  /// Shard structure is preserved: a sparse shard decodes into its
  /// dense shard, so escalation and mixed absorbs continue on exactly
  /// the paths the dense format uses. Cache slots held byte offsets, so
  /// they are cleared (a stale hint is checked before any fold, but a
  /// cold restart is cheaper to reason about).
  void unsparse() {
    if (!sparse_) return;
    sparse_flip_at_ = kNoSparseFlip;
    shard16_.resize(kShardCount);
    for (std::size_t s = 0; s < kShardCount; ++s) {
      auto& rows = shard16_[s];
      rows.reserve(rows.size() + shard_rec_rows_[s]);
      sparse_scan(shard_recs_[s], [&](std::uint64_t, const Row16& r) {
        rows.push_back(r);
      });
      shard_recs_[s].clear();
      shard_recs_[s].shrink_to_fit();
    }
    shard_recs_.clear();
    shard_recs_.shrink_to_fit();
    shard_rec_rows_.clear();
    shard_rec_rows_.shrink_to_fit();
    if (!shard_combine_.empty()) {
      std::fill(shard_combine_.begin(), shard_combine_.end(), CombineSlot{});
    }
    sparse_ = false;
  }

  // --------------------------------------------------- sparse sealing

  /// (sort key, record byte offset) pair — the seal's key-index
  /// indirection extended to variable stride: the radix passes move
  /// these 16-byte pairs, and each record is decoded exactly once, into
  /// its final sorted position.
  struct KeyOff {
    std::uint64_t sk;
    std::uint32_t off;
  };

  /// Per-shard pair sort: the same early-radix threshold the dense
  /// per-shard sort uses — passes above shard_shift_ are constant inside
  /// a shard and the varying-bit skip drops them automatically.
  static void sort_keyoff(std::vector<KeyOff>& keys,
                          std::vector<KeyOff>& buf, std::uint64_t varying) {
    if (keys.size() < kRadixMinRows / 8) {
      std::sort(keys.begin(), keys.end(),
                [](const KeyOff& a, const KeyOff& b) { return a.sk < b.sk; });
      return;
    }
    for (int shift = 0; shift < 64; shift += kRadixBits) {
      if (((varying >> shift) & (kRadixBuckets - 1)) == 0) continue;
      radix_pass(keys, buf, [shift](const KeyOff& p) {
        return static_cast<std::uint32_t>(p.sk >> shift) &
               (kRadixBuckets - 1);
      });
    }
  }

  /// The per-shard sparse seal: sort one shard's (sort key, offset)
  /// pairs and decode into its segment of the flattened buffer. On a failed
  /// validation the shard still decodes (storage order) so the whole
  /// table ends up flat for the caller's dense fallback.
  static bool sort_sparse_shard_v1(const std::vector<std::uint8_t>& buf,
                                   std::uint32_t nrows, VertexId domain,
                                   Row16* out) {
    thread_local std::vector<KeyOff> keys, keys_buf;
    keys.clear();
    keys.reserve(nrows);
    std::uint64_t ormask = 0;
    std::uint64_t andmask = ~std::uint64_t{0};
    bool sorted = true;
    std::uint64_t prev = 0;
    bool ok = true;
    const std::uint8_t* const base = buf.data();
    const std::uint8_t* p = base;
    const std::uint8_t* const end = base + buf.size();
    while (p < end) {
      const std::uint64_t k = load_u64(p);
      const std::uint64_t sk = sort_key(k, 1);
      if (slot_bits(k, 1) >= domain) ok = false;
      keys.push_back({sk, static_cast<std::uint32_t>(p - base)});
      ormask |= sk;
      andmask &= sk;
      sorted = sorted && sk >= prev;
      prev = sk;
      p += 9 + 2 * std::popcount(std::uint32_t{p[8]});
    }
    if (ok && !sorted) sort_keyoff(keys, keys_buf, ormask ^ andmask);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      sparse_decode_at(base, keys[i].off, out[i]);
    }
    return ok;
  }

  bool sort_sparse_sharded_v1(VertexId domain) {
    std::array<std::size_t, kShardCount + 1> off{};
    for (std::size_t s = 0; s < kShardCount; ++s) {
      off[s + 1] = off[s] + shard_rec_rows_[s];
    }
    n16_.resize(off[kShardCount]);
    bool ok = true;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) reduction(&& : ok) \
    if (off[kShardCount] > (1u << 15))
#endif
    for (int s = 0; s < static_cast<int>(kShardCount); ++s) {
      if (shard_recs_[s].empty()) continue;
      ok = sort_sparse_shard_v1(shard_recs_[s], shard_rec_rows_[s], domain,
                                n16_.data() + off[s]) &&
           ok;
    }
    shard_recs_.clear();
    shard_recs_.shrink_to_fit();
    shard_rec_rows_.clear();
    shard_rec_rows_.shrink_to_fit();
    shard_rows_ = 0;
    sharded_ = false;
    sparse_ = false;
    return ok;
  }

  /// Concatenate the shards into n16_ in shard order (ascending-v1
  /// blocks) and leave sharded mode, dropping the shard caches.
  void flatten_shards() {
    if (!sharded_) return;
    n16_.reserve(n16_.size() + shard_rows_);
    for (auto& shard : shard16_) {
      n16_.insert(n16_.end(), shard.begin(), shard.end());
      shard.clear();
      shard.shrink_to_fit();
    }
    shard16_.clear();
    shard16_.shrink_to_fit();
    shard_combine_.clear();
    shard_combine_.shrink_to_fit();
    shard_rows_ = 0;
    sharded_ = false;
  }

  /// Leave sharded mode mid-accumulation (a width escalation or a
  /// mixed absorb): flatten and stand up the global combining cache so
  /// the probe path can continue the phase.
  void unshard() {
    flatten_shards();
    if (combine_.empty()) combine_.resize(kCombineSlots);
  }

  /// The sharded slot-1 seal: shard blocks are ascending in v1, so
  /// each shard sorts independently — radix with every pass above
  /// shard_shift_ pre-satisfied, or a plain comparison sort for small
  /// shards — and lands at its prefix offset of the flattened buffer;
  /// the concatenation is exactly the global order the dense seal's
  /// comparator produces. The copy doubles as the flatten, so a failed
  /// validation (a v1 outside [0, domain), e.g. kNoVertex) still
  /// leaves the rows flattened for the caller's dense fallback.
  bool sort_sharded_by_v1(VertexId domain) {
    // Small and mid-size tables: the per-shard sorts cannot amortize
    // their fixed costs (a histogram + prefix scan per radix pass per
    // shard), so the pre-satisfied leading passes are a net loss —
    // flatten and sort globally, exactly like the probe path's seal.
    // Measured crossover (bench_accumulate, 1 pinned core) is around
    // 16k rows per shard; below it the global radix wins or ties.
    if (shard_rows_ < kShardCount * 4 * kRadixMinRows) {
      flatten_shards();
      return sort_radix_impl(n16_, 1, domain);
    }
    std::array<std::size_t, kShardCount + 1> off{};
    for (std::size_t s = 0; s < kShardCount; ++s) {
      off[s + 1] = off[s] + shard16_[s].size();
    }
    n16_.resize(off[kShardCount]);
    bool ok = true;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) reduction(&& : ok) \
    if (off[kShardCount] > (1u << 15))
#endif
    for (int s = 0; s < static_cast<int>(kShardCount); ++s) {
      auto& rows = shard16_[s];
      if (rows.empty()) continue;
      ok = sort_shard_v1(rows, domain) && ok;
      std::memcpy(n16_.data() + off[s], rows.data(),
                  rows.size() * sizeof(rows[0]));
    }
    shard16_.clear();
    shard16_.shrink_to_fit();
    shard_rows_ = 0;
    sharded_ = false;
    return ok;
  }

  static bool sort_shard_v1(std::vector<Row16>& rows, VertexId domain) {
    // Per-shard radix pays off at 1/8 of kRadixMinRows because the
    // passes above shard_shift_ are pre-satisfied by the shard cut and
    // skipped outright; below that a plain in-cache std::sort wins.
    if (rows.size() >= kRadixMinRows / 8) {
      return sort_radix_impl(rows, 1, domain);
    }
    for (const Row16& r : rows) {
      if (slot_bits(r.k, 1) >= domain) return false;
    }
    // Equal keys are about to be merged; an unstable sort suffices.
    std::sort(rows.begin(), rows.end(),
              [](const Row16& a, const Row16& b) {
                return sort_key(a.k, 1) < sort_key(b.k, 1);
              });
    return true;
  }

  /// OR of the lanes of `src` selected by `m` (bounds their max).
  static Count masked_or(const Vec& src, LaneMask m) {
    Count hi = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      hi |= ((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l) : Count{0};
    }
    return hi;
  }

  template <typename W>
  void push_masked(std::vector<PackedFlatRowT<B, W>>& rows, std::uint64_t k,
                   const Vec& src, LaneMask m) {
    PackedFlatRowT<B, W> r;
    r.k = k;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      r.c[l] = static_cast<W>(((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l)
                                                  : Count{0});
    }
    rows.push_back(r);
  }

  /// combine() for a masked source: sums only the lanes of `m`.
  template <typename W>
  static bool combine_masked(PackedFlatRowT<B, W>& r, const Vec& src,
                             LaneMask m, std::uint64_t cap) {
    std::array<Count, B> sum;
    Count hi = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      sum[l] = r.c[l] + (((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l)
                                             : Count{0});
      hi |= sum[l];
    }
    if (hi > cap) return false;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) r.c[l] = static_cast<W>(sum[l]);
    return true;
  }

  /// Sum `cnt` into an existing narrow row if every merged lane still
  /// fits the row's width; leaves the row untouched (caller appends a
  /// duplicate, merged at seal) otherwise.
  template <typename W>
  static bool combine(PackedFlatRowT<B, W>& r, const Vec& cnt,
                      std::uint64_t cap) {
    std::array<Count, B> sum;
    Count hi = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      sum[l] = r.c[l] + LaneOps<B>::lane(cnt, l);
      hi |= sum[l];
    }
    if (hi > cap) return false;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) r.c[l] = static_cast<W>(sum[l]);
    return true;
  }

  template <typename W>
  static void push(std::vector<PackedFlatRowT<B, W>>& rows, std::uint64_t k,
                   const Vec& cnt) {
    PackedFlatRowT<B, W> r;
    r.k = k;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      r.c[l] = static_cast<W>(LaneOps<B>::lane(cnt, l));
    }
    rows.push_back(r);
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

  void to_u32() {
    unsparse();
    if (sharded_) flatten_shards();
    n32_.resize(n16_.size());
    for (std::size_t i = 0; i < n16_.size(); ++i) {
      n32_[i].k = n16_[i].k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) n32_[i].c[l] = n16_[i].c[l];
    }
    n16_.clear();
    n16_.shrink_to_fit();
    mode_ = Mode::kU32;
  }

  void to_wide() {
    unsparse();
    if (sharded_) flatten_shards();
    if (mode_ == Mode::kWide) return;
    const std::size_t n = size();
    const std::size_t at = wide_.size();
    wide_.resize(at + n);
    for (std::size_t i = 0; i < n; ++i) row(i, wide_[at + i]);
    n16_.clear();
    n16_.shrink_to_fit();
    n32_.clear();
    n32_.shrink_to_fit();
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

  /// The slot's bit field of a packed key (28 bits; kNoVertex packs to
  /// the all-ones pattern, which any real domain excludes).
  static std::uint32_t slot_bits(std::uint64_t k, int slot) {
    return static_cast<std::uint32_t>(k >> (slot == 0 ? 36 : 8)) &
           kPacked28NoVertex;
  }

  /// The 64-bit sort key whose ascending order is exactly the dense
  /// seal's comparator for `slot`: the grouping field in the top 28
  /// bits, the other vertex field below it, the signature in the low
  /// byte (narrow keys never use slots 2-3). For slot 0 this IS the raw
  /// packed key; for slot 1 the two vertex fields swap.
  static std::uint64_t sort_key(std::uint64_t k, int slot) {
    if (slot == 0) return k;
    return ((k << 28) & (std::uint64_t{kPacked28NoVertex} << 36)) |
           ((k >> 28) & (std::uint64_t{kPacked28NoVertex} << 8)) |
           (k & 0xFFu);
  }

  // Row count at which a radix pass's fixed histogram + prefix-scan
  // cost stops dominating; the sharded seals scale their cutovers from
  // it. The global seal is radix at every size (table/README.md "Seal
  // sort" has the small-table measurement).
  static constexpr std::size_t kRadixMinRows = 4096;
  static constexpr int kRadixBits = 11;
  static constexpr std::uint32_t kRadixBuckets = 1u << kRadixBits;

  /// One stable counting-scatter pass of the LSD radix sort: `cur` rows
  /// move to `buf` ordered by digit(item). Parallel per-chunk histograms
  /// when OpenMP delivers a team (same chunked layout the dense
  /// bucket_sort uses, so the scatter stays stable for any team size).
  template <typename T, typename DigitFn>
  static void radix_pass(std::vector<T>& cur, std::vector<T>& buf,
                         DigitFn&& digit) {
    const std::size_t n = cur.size();
    buf.resize(n);
#ifdef _OPENMP
    const int max_threads = omp_get_max_threads();
    if (max_threads > 1 && n >= (1u << 16)) {
      const int nchunks = max_threads;
      const std::size_t chunk = (n + nchunks - 1) / nchunks;
      std::vector<std::vector<std::uint32_t>> hist(nchunks);
#pragma omp parallel for schedule(static, 1)
      for (int c = 0; c < nchunks; ++c) {
        const std::size_t lo = std::min(n, c * chunk);
        const std::size_t hi = std::min(n, lo + chunk);
        auto& h = hist[c];
        h.assign(kRadixBuckets, 0);
        for (std::size_t i = lo; i < hi; ++i) ++h[digit(cur[i])];
      }
      std::array<std::uint32_t, kRadixBuckets> off{};
      for (int c = 0; c < nchunks; ++c) {
        for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
          off[d] += hist[c][d];
        }
      }
      std::uint32_t sum = 0;
      for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
        const std::uint32_t cnt = off[d];
        off[d] = sum;
        sum += cnt;
      }
      // Rebase each chunk's histogram into its scatter cursor: chunk c's
      // share of digit d starts after chunks < c (input order = stable).
      for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
        std::uint32_t cursor = off[d];
        for (int c = 0; c < nchunks; ++c) {
          const std::uint32_t cnt = hist[c][d];
          hist[c][d] = cursor;
          cursor += cnt;
        }
      }
#pragma omp parallel for schedule(static, 1)
      for (int c = 0; c < nchunks; ++c) {
        const std::size_t lo = std::min(n, c * chunk);
        const std::size_t hi = std::min(n, lo + chunk);
        auto& cursors = hist[c];
        for (std::size_t i = lo; i < hi; ++i) {
          buf[cursors[digit(cur[i])]++] = cur[i];
        }
      }
      cur.swap(buf);
      return;
    }
#endif
    std::array<std::uint32_t, kRadixBuckets> off{};
    for (const T& t : cur) ++off[digit(t)];
    std::uint32_t sum = 0;
    for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
      const std::uint32_t cnt = off[d];
      off[d] = sum;
      sum += cnt;
    }
    for (const T& t : cur) buf[off[digit(t)]++] = t;
    cur.swap(buf);
  }

  /// LSD radix seal sort: stable kRadixBits-wide passes over the
  /// slot-permuted packed key, skipping any pass whose digit is constant
  /// across the table (the common case — vertex fields only populate
  /// bit_width(domain) bits, and an all-kNoVertex field contributes no
  /// varying bit at all). The validation scan doubles as a sorted-input
  /// detector: rows that arrive already in seal order (combining-cache
  /// bursts of an ordered producer, checkpoint decode -> reseal) skip
  /// the sort outright, and u32 rows too wide to haul through every pass
  /// sort as (key, index) pairs and are gathered once at the end.
  template <typename W>
  static bool sort_radix_impl(std::vector<PackedFlatRowT<B, W>>& rows,
                              int slot, VertexId domain) {
    using Row = PackedFlatRowT<B, W>;
    const std::size_t n = rows.size();
    if (n == 0) return true;
    std::uint64_t ormask = 0;
    std::uint64_t andmask = ~std::uint64_t{0};
    bool sorted = true;
    std::uint64_t prev = 0;
    for (const Row& r : rows) {
      if (slot_bits(r.k, slot) >= domain) return false;
      const std::uint64_t sk = sort_key(r.k, slot);
      ormask |= sk;
      andmask &= sk;
      sorted = sorted && sk >= prev;
      prev = sk;
    }
    if (sorted) return true;
    const std::uint64_t varying = ormask ^ andmask;

    // Scatter buffer reused across seals (swapped, not stolen, so both
    // buffers keep cycling); rows are only ever fully overwritten, so
    // the growth zero-fill is the one init cost it ever pays.
    if constexpr (sizeof(Row) <= 24) {
      thread_local std::vector<Row> swap_buf;
      if (swap_buf.capacity() > 2 * n + 1024) {
        swap_buf.clear();
        swap_buf.shrink_to_fit();
      }
      for (int shift = 0; shift < 64; shift += kRadixBits) {
        if (((varying >> shift) & (kRadixBuckets - 1)) == 0) continue;
        radix_pass(rows, swap_buf, [slot, shift](const Row& r) {
          return static_cast<std::uint32_t>(sort_key(r.k, slot) >> shift) &
                 (kRadixBuckets - 1);
        });
      }
    } else {
      // Key-index passes: move 16-byte (sort key, row index) pairs
      // through the passes instead of the wide rows, then gather.
      struct KeyIdx {
        std::uint64_t sk;
        std::uint32_t idx;
      };
      thread_local std::vector<KeyIdx> keys, keys_buf;
      keys.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = {sort_key(rows[i].k, slot),
                   static_cast<std::uint32_t>(i)};
      }
      for (int shift = 0; shift < 64; shift += kRadixBits) {
        if (((varying >> shift) & (kRadixBuckets - 1)) == 0) continue;
        radix_pass(keys, keys_buf, [shift](const KeyIdx& p) {
          return static_cast<std::uint32_t>(p.sk >> shift) &
                 (kRadixBuckets - 1);
        });
      }
      thread_local std::vector<Row> swap_buf;
      if (swap_buf.capacity() > 2 * n + 1024) {
        swap_buf.clear();
        swap_buf.shrink_to_fit();
      }
      swap_buf.resize(n);
      for (std::size_t i = 0; i < n; ++i) swap_buf[i] = rows[keys[i].idx];
      rows.swap(swap_buf);
      keys.clear();
      keys_buf.clear();
    }
    return true;
  }

  template <typename W>
  static FlatStats scan_impl(const std::vector<PackedFlatRowT<B, W>>& rows) {
    FlatStats st;
    const std::size_t n = rows.size();
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t k = rows[i].k;
      std::array<Count, B> sum{};
      do {
        CCBT_SIMD
        for (int l = 0; l < B; ++l) sum[l] += rows[i].c[l];
        ++i;
      } while (i < n && rows[i].k == k);
      ++st.rows;
      for (int l = 0; l < B; ++l) {
        st.lanes_occupied += (sum[l] != 0);
        if (sum[l] > st.max_count) st.max_count = sum[l];
      }
    }
    return st;
  }

  FlatStats scan_wide() const {
    FlatStats st;
    const std::size_t n = wide_.size();
    std::size_t i = 0;
    while (i < n) {
      const TableKey& k = wide_[i].key;
      auto sum = LaneOps<B>::zero();
      do {
        LaneOps<B>::add(sum, wide_[i].cnt);
        ++i;
      } while (i < n && wide_[i].key == k);
      ++st.rows;
      for (int l = 0; l < B; ++l) {
        const Count c = LaneOps<B>::lane(sum, l);
        st.lanes_occupied += (c != 0);
        if (c > st.max_count) st.max_count = c;
      }
    }
    return st;
  }

  template <typename W>
  static void merge_impl(std::vector<PackedFlatRowT<B, W>>& rows) {
    const std::size_t n = rows.size();
    std::size_t w = 0;
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t k = rows[i].k;
      std::array<Count, B> sum{};
      do {
        CCBT_SIMD
        for (int l = 0; l < B; ++l) sum[l] += rows[i].c[l];
        ++i;
      } while (i < n && rows[i].k == k);
      auto& out = rows[w++];
      out.k = k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) out.c[l] = static_cast<W>(sum[l]);
    }
    rows.resize(w);
  }

  void merge_wide() {
    const std::size_t n = wide_.size();
    std::size_t w = 0;
    std::size_t i = 0;
    while (i < n) {
      Entry acc = wide_[i];
      std::size_t j = i + 1;
      while (j < n && wide_[j].key == acc.key) {
        LaneOps<B>::add(acc.cnt, wide_[j].cnt);
        ++j;
      }
      wide_[w++] = acc;
      i = j;
    }
    wide_.resize(w);
  }

  Mode mode_ = Mode::kU16;
  std::vector<PackedFlatRowT<B, std::uint16_t>> n16_;
  std::vector<PackedFlatRowT<B, std::uint32_t>> n32_;
  std::vector<Entry> wide_;
  std::vector<CombineSlot> combine_;

  // Accumulation-phase state (path binding + sharded storage).
  bool prepared_ = false;
  bool sharded_ = false;
  int shard_shift_ = 0;
  std::size_t shard_rows_ = 0;
  std::uint64_t combine_folds_ = 0;
  std::uint64_t run_emits_ = 0;
  std::uint64_t frontier_folds_ = 0;
  std::vector<std::vector<Row16>> shard16_;
  std::vector<CombineSlot> shard_combine_;

  // Sparse emission state (sharded u16 sinks only): one record buffer
  // per shard plus its row count (the seal's per-shard prefix offsets).
  // sparse_flip_at_ is the armed row count: a dense sharded phase
  // crossing it re-encodes and continues sparse (kNoSparseFlip =
  // disarmed).
  static constexpr std::size_t kNoSparseFlip =
      std::numeric_limits<std::size_t>::max();
  bool sparse_ = false;
  std::size_t sparse_flip_at_ = kNoSparseFlip;
  std::vector<std::vector<std::uint8_t>> shard_recs_;
  std::vector<std::uint32_t> shard_rec_rows_;
};

}  // namespace ccbt
