#pragma once
// Projection-table keys and entries.
//
// A key holds up to four data-vertex slots plus a color signature:
//   slot 0 — the anchor (π of the path's start node / first boundary node)
//   slot 1 — the frontier (π of the current path end / second boundary)
//   slots 2,3 — "tracked" vertices: the images of boundary nodes that fall
//               in the interior of a DB path (the additional fields of
//               Section 5.1, configurations (A) and (B)).
// Unused slots hold kNoVertex so equality and ordering are uniform. An
// entry is a key plus the number of colorful matches under one coloring.

#include <array>
#include <cstdint>

#include "ccbt/graph/types.hpp"

// Hint for the branchless filter loops of the join kernels (a signature
// AND/compare per row), which `omp simd` vectorizes. Collapses to nothing
// without OpenMP.
#if defined(_OPENMP)
#define CCBT_PRAGMA(x) _Pragma(#x)
#define CCBT_SIMD CCBT_PRAGMA(omp simd)
#else
#define CCBT_SIMD
#endif

namespace ccbt {

struct TableKey {
  std::array<VertexId, 4> v{kNoVertex, kNoVertex, kNoVertex, kNoVertex};
  Signature sig = 0;

  friend bool operator==(const TableKey&, const TableKey&) = default;
};

/// An accumulated (key -> count) row (32 bytes).
struct TableEntry {
  TableKey key;
  Count cnt = 0;
};

// ------------------------------------------------------------------ packed
// Compact accumulation layout (à la Malík et al.): for queries with at
// most 8 mapped vertices (signature fits a byte) and keys that use only
// the two boundary slots on graphs below 2^28 - 1 vertices, the whole key
// packs into one 64-bit word — v0:28 | v1:28 | sig:8 — giving a 16-byte
// (key, count) row that halves join bandwidth against the 32-byte wide
// row. kNoVertex maps to the reserved all-ones 28-bit pattern.

inline constexpr std::uint32_t kPacked28NoVertex = 0x0FFFFFFFu;

inline constexpr bool packable_slot(VertexId v) {
  return v < kPacked28NoVertex || v == kNoVertex;
}

inline constexpr bool packable_key(const TableKey& k) {
  return k.v[2] == kNoVertex && k.v[3] == kNoVertex && k.sig < 256 &&
         packable_slot(k.v[0]) && packable_slot(k.v[1]);
}

inline constexpr std::uint64_t pack_key(const TableKey& k) {
  const std::uint64_t v0 = k.v[0] == kNoVertex ? kPacked28NoVertex : k.v[0];
  const std::uint64_t v1 = k.v[1] == kNoVertex ? kPacked28NoVertex : k.v[1];
  return (v0 << 36) | (v1 << 8) | k.sig;
}

inline constexpr TableKey unpack_key(std::uint64_t p) {
  TableKey k;
  const auto v0 = static_cast<std::uint32_t>(p >> 36) & kPacked28NoVertex;
  const auto v1 = static_cast<std::uint32_t>(p >> 8) & kPacked28NoVertex;
  k.v[0] = v0 == kPacked28NoVertex ? kNoVertex : v0;
  k.v[1] = v1 == kPacked28NoVertex ? kNoVertex : v1;
  k.sig = static_cast<Signature>(p & 0xFFu);
  return k;
}

/// One packed row: a packed key and its count, 16 bytes — the row of the
/// packed flat rows (flat_rows.hpp).
struct PackedFlatRow {
  std::uint64_t k = 0;
  Count c = 0;
};

}  // namespace ccbt
