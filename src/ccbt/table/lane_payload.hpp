#pragma once
// Lane-compressed count rows (à la the compact-row encoding of Malík et
// al., extended to the lane dimension the way SubGraph2Vec's vectorized
// counting pays for itself): a batched entry's dense `Count cnt[B]` is
// replaced, per *table*, by
//
//   * a per-row lane-occupancy bitmask (which lanes carry a nonzero
//     count), and
//   * a variable-width packed payload: the occupied lanes' counts, in
//     ascending lane order, as u16 or u32 words with a u64 overflow
//     escape. The width is chosen once per table at seal() time from the
//     observed maximum count.
//
// With k >= 4 colors random colorings rarely share signatures, so a
// B = 8 row typically carries 1–2 live lanes: 64 bytes of dense counts
// shrink to a 1-byte mask plus 2–16 payload bytes. Tables whose rows are
// genuinely dense (every lane live, u64-scale counts) stay in the dense
// `u64[B]` layout, which is what the SIMD kernels want — the chooser in
// `lane_layout_profitable` makes that call from the measured density.
//
// The same encoding doubles as the wire format of the virtual-MPI
// transport (dist/comm.hpp): every serialized row pays for exactly the
// lanes it carries, so transport volume tracks true lane density instead
// of the dense vector's worst case.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// Packed count word size; the enumerator value is the byte width.
enum class PayloadWidth : std::uint8_t { kU16 = 2, kU32 = 4, kU64 = 8 };

/// How a sealed table will be consumed; the seal-time layout chooser's
/// second input (the first is the observed lane density / max count).
enum class LaneSealHint : std::uint8_t {
  kStream,  // consumed once right after sealing: stay dense (SIMD path)
  kStore,   // stored for repeated probes: re-pack when smaller
};

inline constexpr int payload_width_bytes(PayloadWidth w) {
  return static_cast<int>(w);
}

/// Index 0/1/2 for u16/u32/u64 (histogram slots, wire width codes).
inline constexpr int payload_width_code(PayloadWidth w) {
  switch (w) {
    case PayloadWidth::kU16: return 0;
    case PayloadWidth::kU32: return 1;
    case PayloadWidth::kU64: return 2;
  }
  return 2;
}

inline constexpr PayloadWidth payload_width_from_code(int code) {
  return code == 0   ? PayloadWidth::kU16
         : code == 1 ? PayloadWidth::kU32
                     : PayloadWidth::kU64;
}

/// Narrowest width that represents every count up to `max_count` exactly
/// (the u16 -> u32 -> u64 escalation of the overflow escape).
inline constexpr PayloadWidth choose_payload_width(Count max_count) {
  if (max_count <= 0xFFFFull) return PayloadWidth::kU16;
  if (max_count <= 0xFFFFFFFFull) return PayloadWidth::kU32;
  return PayloadWidth::kU64;
}

/// What one density scan of a table's rows observed, plus the layout the
/// chooser picked from it. `rows == 0` means "never scanned" (unsorted
/// tables, dense B = 1 tables).
struct LaneLayoutInfo {
  std::uint64_t rows = 0;
  std::uint64_t lane_slots = 0;      // rows * B
  std::uint64_t lanes_occupied = 0;  // nonzero (mask-set) lane slots
  Count max_count = 0;
  bool packed = false;               // table re-packed to the compressed layout
  PayloadWidth width = PayloadWidth::kU64;
  std::uint64_t dense_bytes = 0;     // rows * sizeof(dense entry)
  std::uint64_t packed_bytes = 0;    // keys + masks + offsets + payload

  double density() const {
    return lane_slots == 0
               ? 0.0
               : static_cast<double>(lanes_occupied) /
                     static_cast<double>(lane_slots);
  }
};

/// Run-wide accumulation of LaneLayoutInfo over every sealed table —
/// the telemetry surfaced through ExecStats / DistStats so the layout
/// chooser's decisions are auditable (BENCH_batch.json histograms).
struct LaneTelemetry {
  std::uint64_t rows = 0;
  std::uint64_t lane_slots = 0;
  std::uint64_t lanes_occupied = 0;
  std::uint64_t rows_packed = 0;
  std::array<std::uint64_t, 3> width_rows{};  // packed rows per u16/u32/u64
  std::uint64_t packed_payload_bytes = 0;
  std::uint64_t dense_bytes = 0;

  void note(const LaneLayoutInfo& info) {
    if (info.rows == 0) return;
    rows += info.rows;
    lane_slots += info.lane_slots;
    lanes_occupied += info.lanes_occupied;
    dense_bytes += info.dense_bytes;
    if (info.packed) {
      rows_packed += info.rows;
      width_rows[payload_width_code(info.width)] += info.rows;
      packed_payload_bytes += info.packed_bytes;
    }
  }

  double density() const {
    return lane_slots == 0
               ? 0.0
               : static_cast<double>(lanes_occupied) /
                     static_cast<double>(lane_slots);
  }
};

/// Density scan over dense rows: occupancy, max count, and both layouts'
/// byte footprints (the chooser's inputs).
template <int B>
LaneLayoutInfo scan_lane_layout(std::span<const TableEntryT<B>> rows) {
  LaneLayoutInfo info;
  info.rows = rows.size();
  info.lane_slots = rows.size() * static_cast<std::uint64_t>(B);
  for (const TableEntryT<B>& e : rows) {
    for (int l = 0; l < B; ++l) {
      const Count c = LaneOps<B>::lane(e.cnt, l);
      info.lanes_occupied += (c != 0);
      if (c > info.max_count) info.max_count = c;
    }
  }
  info.width = choose_payload_width(info.max_count);
  info.dense_bytes = info.rows * sizeof(TableEntryT<B>);
  // Packed footprint: unpadded key + 1-byte mask + 4-byte word offset per
  // row, plus one payload word per occupied lane.
  info.packed_bytes =
      info.rows * (sizeof(TableKey) + 1 + 4) +
      info.lanes_occupied * static_cast<std::uint64_t>(
                                payload_width_bytes(info.width));
  return info;
}

/// The per-table layout decision: re-pack only when the compressed layout
/// saves at least 1/8 of the dense bytes. All-lanes-dense u64 tables fail
/// this (their packed form is *larger*), which keeps the SIMD-friendly
/// dense path for exactly the tables that want it. Tables whose payload
/// would overflow the u32 word offsets stay dense too.
inline bool lane_layout_profitable(const LaneLayoutInfo& info) {
  return info.rows > 0 && info.packed_bytes * 8 <= info.dense_bytes * 7 &&
         info.lanes_occupied < 0xFFFFFFFFull;
}

/// A read-only view of one lane-compressed row: the occupancy mask plus a
/// pointer to its packed count words. This is the unit the join/extend
/// kernels consume — to_vec() widens into the dense lane vector the
/// per-entry kernels operate on.
template <int B>
struct LaneRowViewT {
  const TableKey* key = nullptr;
  LaneMask mask = 0;
  PayloadWidth width = PayloadWidth::kU64;
  const std::uint8_t* words = nullptr;  // packed counts, ascending lane

  Count word(int j) const {
    const int w = payload_width_bytes(width);
    std::uint64_t v = 0;
    std::memcpy(&v, words + static_cast<std::size_t>(j) * w, w);
    return v;
  }

  /// Count of lane l (0 when l is not occupied).
  Count lane(int l) const {
    if (((mask >> l) & 1u) == 0) return 0;
    const int j = std::popcount(mask & ((LaneMask{1} << l) - 1u));
    return word(j);
  }

  typename LaneOps<B>::Vec to_vec() const {
    auto v = LaneOps<B>::zero();
    int j = 0;
    for (LaneMask m = mask; m != 0; m &= m - 1) {
      LaneOps<B>::set_lane(v, std::countr_zero(m), word(j++));
    }
    return v;
  }
};

/// Columnar store for the packed payloads of a whole table: one mask and
/// one word-offset per row, plus a byte pool of packed counts in the
/// table's chosen width. Rows append in order; access is O(1) by index.
template <int B>
class LanePayloadT {
 public:
  using Vec = typename LaneOps<B>::Vec;

  void reset(PayloadWidth w, std::size_t rows_hint,
             std::uint64_t words_hint) {
    width_ = w;
    masks_.clear();
    off_.assign(1, 0);
    bytes_.clear();
    masks_.reserve(rows_hint);
    off_.reserve(rows_hint + 1);
    bytes_.reserve(words_hint *
                   static_cast<std::uint64_t>(payload_width_bytes(w)));
  }

  void append(const Vec& v) {
    LaneMask mask = 0;
    for (int l = 0; l < B; ++l) {
      mask |= static_cast<LaneMask>(LaneOps<B>::lane(v, l) != 0) << l;
    }
    const int w = payload_width_bytes(width_);
    for (LaneMask m = mask; m != 0; m &= m - 1) {
      const Count c = LaneOps<B>::lane(v, std::countr_zero(m));
      const std::size_t at = bytes_.size();
      bytes_.resize(at + w);
      std::memcpy(bytes_.data() + at, &c, w);
    }
    masks_.push_back(static_cast<std::uint8_t>(mask));
    off_.push_back(off_.back() +
                   static_cast<std::uint32_t>(std::popcount(mask)));
  }

  std::size_t rows() const { return masks_.size(); }
  PayloadWidth width() const { return width_; }
  std::uint64_t payload_bytes() const { return bytes_.size(); }

  LaneRowViewT<B> view(std::size_t i, const TableKey& key) const {
    return {&key, masks_[i], width_,
            bytes_.data() + static_cast<std::size_t>(off_[i]) *
                                payload_width_bytes(width_)};
  }

  LaneMask mask(std::size_t i) const { return masks_[i]; }

  Vec expand(std::size_t i) const {
    auto v = LaneOps<B>::zero();
    const int w = payload_width_bytes(width_);
    const std::uint8_t* p =
        bytes_.data() + static_cast<std::size_t>(off_[i]) * w;
    for (LaneMask m = masks_[i]; m != 0; m &= m - 1) {
      std::uint64_t c = 0;
      std::memcpy(&c, p, w);
      p += w;
      LaneOps<B>::set_lane(v, std::countr_zero(m), c);
    }
    return v;
  }

  void clear() {
    masks_.clear();
    masks_.shrink_to_fit();
    off_.clear();
    off_.shrink_to_fit();
    bytes_.clear();
    bytes_.shrink_to_fit();
  }

 private:
  PayloadWidth width_ = PayloadWidth::kU64;
  std::vector<std::uint8_t> masks_;
  std::vector<std::uint32_t> off_;   // word offsets, rows + 1 entries
  std::vector<std::uint8_t> bytes_;  // packed count words, little-endian
};

// ------------------------------------------------------------------ wire
// The transport encoding of one lane-compressed row (dist/comm.hpp at
// B > 1; B = 1 keeps the PR 2 fixed-size struct layout bit for bit):
//
//   v0 v1 v2 v3 sig : 5 x u32 LE   (20 bytes, the unpadded key)
//   mask            : u8           (lane occupancy)
//   width code      : u8           (0 = u16, 1 = u32, 2 = u64)
//   counts          : popcount(mask) x width, LE, ascending lane
//
// The width is chosen per row (the streaming analog of the per-table
// seal-time choice), so a row's wire cost is exactly what its counts
// need.

inline constexpr std::size_t kWireKeyBytes = 5 * sizeof(std::uint32_t);

/// Append the row's wire encoding to `out`; returns the row's payload
/// width (for the sender's histogram).
template <int B>
PayloadWidth wire_encode(const TableEntryT<B>& e,
                         std::vector<std::uint8_t>& out) {
  LaneMask mask = 0;
  Count max_count = 0;
  for (int l = 0; l < B; ++l) {
    const Count c = LaneOps<B>::lane(e.cnt, l);
    mask |= static_cast<LaneMask>(c != 0) << l;
    if (c > max_count) max_count = c;
  }
  const PayloadWidth width = choose_payload_width(max_count);
  const int w = payload_width_bytes(width);

  std::size_t at = out.size();
  out.resize(at + kWireKeyBytes + 2 +
             static_cast<std::size_t>(std::popcount(mask)) * w);
  std::uint8_t* p = out.data() + at;
  for (int s = 0; s < 4; ++s) {
    std::memcpy(p, &e.key.v[s], sizeof(std::uint32_t));
    p += sizeof(std::uint32_t);
  }
  const auto sig = static_cast<std::uint32_t>(e.key.sig);
  std::memcpy(p, &sig, sizeof(std::uint32_t));
  p += sizeof(std::uint32_t);
  *p++ = static_cast<std::uint8_t>(mask);
  *p++ = static_cast<std::uint8_t>(payload_width_code(width));
  for (LaneMask m = mask; m != 0; m &= m - 1) {
    const Count c = LaneOps<B>::lane(e.cnt, std::countr_zero(m));
    std::memcpy(p, &c, w);
    p += w;
  }
  return width;
}

/// Decode one row starting at `p`; returns the cursor past it.
template <int B>
const std::uint8_t* wire_decode(const std::uint8_t* p, TableEntryT<B>& e) {
  for (int s = 0; s < 4; ++s) {
    std::memcpy(&e.key.v[s], p, sizeof(std::uint32_t));
    p += sizeof(std::uint32_t);
  }
  std::uint32_t sig = 0;
  std::memcpy(&sig, p, sizeof(std::uint32_t));
  p += sizeof(std::uint32_t);
  e.key.sig = static_cast<Signature>(sig);
  const LaneMask mask = *p++;
  const int w = payload_width_bytes(payload_width_from_code(*p++));
  e.cnt = LaneOps<B>::zero();
  for (LaneMask m = mask; m != 0; m &= m - 1) {
    std::uint64_t c = 0;
    std::memcpy(&c, p, w);
    p += w;
    LaneOps<B>::set_lane(e.cnt, std::countr_zero(m), c);
  }
  return p;
}

}  // namespace ccbt
