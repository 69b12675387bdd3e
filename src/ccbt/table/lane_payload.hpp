#pragma once
// Width-coded count rows: the row encoding of distributed checkpoints
// (dist/checkpoint.hpp), plus the layout telemetry of sealed tables. A
// serialized row stores its key, an occupancy byte (1 when the count is
// nonzero) and the count, when nonzero, as a u16 or u32 word with a u64
// overflow escape, the width chosen per row from the count (the compact
// rows of Malík et al.). Tables themselves store narrow flat rows
// (flat_rows.hpp) or dense rows (proj_table.hpp).

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// Packed count word size; the enumerator value is the byte width.
enum class PayloadWidth : std::uint8_t { kU16 = 2, kU32 = 4, kU64 = 8 };

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

/// The occupancy of one table's rows (ProjTable::layout()). `rows == 0`
/// means "never observed" (tables not built in narrow rows).
struct LaneLayoutInfo {
  std::uint64_t rows = 0;
  std::uint64_t lane_slots = 0;      // one count slot per row
  std::uint64_t lanes_occupied = 0;  // nonzero counts
  Count max_count = 0;
  bool packed = false;               // rows held in the narrow flat layout
  PayloadWidth width = PayloadWidth::kU64;  // narrow width, else by max

  double density() const {
    return lane_slots == 0
               ? 0.0
               : static_cast<double>(lanes_occupied) /
                     static_cast<double>(lane_slots);
  }
};

/// Run-wide accumulation of LaneLayoutInfo over the tables the engines
/// note — the telemetry surfaced through ExecStats / DistStats
/// (BENCH_batch.json histograms).
struct LaneTelemetry {
  std::uint64_t rows = 0;
  std::uint64_t lane_slots = 0;
  std::uint64_t lanes_occupied = 0;
  std::uint64_t rows_packed = 0;               // rows held narrow
  std::array<std::uint64_t, 3> width_rows{};  // narrow rows per u16/u32/u64

  void note(const LaneLayoutInfo& info) {
    if (info.rows == 0) return;
    rows += info.rows;
    lane_slots += info.lane_slots;
    lanes_occupied += info.lanes_occupied;
    if (info.packed) {
      rows_packed += info.rows;
      width_rows[payload_width_code(info.width)] += info.rows;
    }
  }

  double density() const {
    return lane_slots == 0
               ? 0.0
               : static_cast<double>(lanes_occupied) /
                     static_cast<double>(lane_slots);
  }
};

// ------------------------------------------------------------------ wire
// The serialized encoding of one row (checkpoint shard images):
//
//   v0 v1 v2 v3 sig : 5 x u32 LE   (20 bytes, the unpadded key)
//   occupied        : u8           (1 when the count is nonzero)
//   width code      : u8           (0 = u16, 1 = u32, 2 = u64)
//   count           : width bytes LE, present only when occupied
//
// The width is chosen per row, so a row's wire cost is exactly what its
// count needs.

inline constexpr std::size_t kWireKeyBytes = 5 * sizeof(std::uint32_t);

/// Append the row's wire encoding to `out`; returns the row's payload
/// width.
inline PayloadWidth wire_encode(const TableEntry& e,
                                std::vector<std::uint8_t>& out) {
  const bool occupied = e.cnt != 0;
  const PayloadWidth width = choose_payload_width(e.cnt);
  const int w = payload_width_bytes(width);

  std::size_t at = out.size();
  out.resize(at + kWireKeyBytes + 2 + (occupied ? w : 0));
  std::uint8_t* p = out.data() + at;
  for (int s = 0; s < 4; ++s) {
    std::memcpy(p, &e.key.v[s], sizeof(std::uint32_t));
    p += sizeof(std::uint32_t);
  }
  const auto sig = static_cast<std::uint32_t>(e.key.sig);
  std::memcpy(p, &sig, sizeof(std::uint32_t));
  p += sizeof(std::uint32_t);
  *p++ = static_cast<std::uint8_t>(occupied);
  *p++ = static_cast<std::uint8_t>(payload_width_code(width));
  if (occupied) std::memcpy(p, &e.cnt, w);
  return width;
}

/// Decode one row starting at `p`; returns the cursor past it.
inline const std::uint8_t* wire_decode(const std::uint8_t* p, TableEntry& e) {
  for (int s = 0; s < 4; ++s) {
    std::memcpy(&e.key.v[s], p, sizeof(std::uint32_t));
    p += sizeof(std::uint32_t);
  }
  std::uint32_t sig = 0;
  std::memcpy(&sig, p, sizeof(std::uint32_t));
  p += sizeof(std::uint32_t);
  e.key.sig = static_cast<Signature>(sig);
  const bool occupied = *p++ != 0;
  const int w = payload_width_bytes(payload_width_from_code(*p++));
  e.cnt = 0;
  if (occupied) {
    std::memcpy(&e.cnt, p, w);
    p += w;
  }
  return p;
}

}  // namespace ccbt
