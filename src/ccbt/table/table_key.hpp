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

#include <algorithm>
#include <array>
#include <bit>
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
// Compact accumulation layout (à la Malík et al.): a key whose signature
// fits a byte (queries with at most 8 mapped vertices) and whose used
// slots fit the layout packs into one 64-bit word, giving a 16-byte
// (key, count) row that halves join bandwidth against the 32-byte wide
// row. The vertex fields are sized to the data graph: b = bit_width(n)
// bits each, so every id stays below the all-ones pattern that encodes
// kNoVertex, and S = min(4, 56 / b) slots pack above the 8-bit
// signature, high bits to low:
//
//   v0 | v1 | ... | v(S-1) | sig
//
// A raw u64 compare therefore orders packed keys by (v0, v1, v2, v3,
// sig), the full-key (kByV0) order, and inside one frontier bucket by the
// kByV1 order. Every graph below 2^14 vertices packs all four slots;
// from 2^14 on three, from 2^18 on two (28-bit fields at most); from
// 2^28 on none. A key that uses a slot >= S or a signature
// past 8 bits does not pack and takes the wide row.

class KeyLayout {
 public:
  /// The layout of a data graph with `num_vertices` vertices.
  static constexpr KeyLayout for_vertices(std::uint64_t num_vertices) {
    const int bits = static_cast<int>(std::bit_width(num_vertices));
    return KeyLayout(std::clamp(bits, 1, 33));
  }

  /// Bits per vertex field.
  constexpr int bits() const { return bits_; }
  /// Vertex slots that pack (0: no key packs).
  constexpr int slots() const { return slots_; }
  /// The field pattern of kNoVertex; every packed id is below it.
  constexpr std::uint64_t none() const { return none_; }

  /// Position of slot s's field (s < slots()).
  constexpr int shift(int s) const { return shift_[s]; }
  /// The bits of slot s's field.
  constexpr std::uint64_t field_mask(int s) const { return none_ << shift(s); }
  /// Slot s of a packed key, raw: none() stands for kNoVertex.
  constexpr VertexId field(std::uint64_t p, int s) const {
    return static_cast<VertexId>((p >> shift(s)) & none_);
  }
  /// field(p, 0): the top field, which needs no mask.
  constexpr VertexId v0(std::uint64_t p) const {
    return static_cast<VertexId>(p >> shift_[0]);
  }

  // The loops below run over all four slots without a branch, so that
  // they unroll: past slots(), limit_ is 0 and shift_ is 0.

  /// Pack `k` into `p` and return true, or return false (leaving `p`
  /// unspecified) when `k` does not pack.
  constexpr bool try_pack(const TableKey& k, std::uint64_t& p) const {
    bool ok = (slots_ != 0) & (k.sig <= 0xFF);
    std::uint64_t out = k.sig;
    for (int s = 0; s < 4; ++s) {
      const VertexId v = k.v[s];
      const bool no = v == kNoVertex;
      ok &= no | (v < limit_[s]);
      out |= std::uint64_t{no ? limit_[s] : v} << shift_[s];
    }
    p = out;
    return ok;
  }

  constexpr bool packable(const TableKey& k) const {
    std::uint64_t p = 0;
    return try_pack(k, p);
  }

  /// The packed word of a packable key.
  constexpr std::uint64_t pack(const TableKey& k) const {
    std::uint64_t p = 0;
    try_pack(k, p);
    return p;
  }

  constexpr TableKey unpack(std::uint64_t p) const {
    TableKey k;
    for (int s = 0; s < 4; ++s) {
      // A slot past slots() reads as none().
      const std::uint64_t v = ((p >> shift_[s]) & none_) | (none_ ^ limit_[s]);
      k.v[s] = v == none_ ? kNoVertex : static_cast<VertexId>(v);
    }
    k.sig = static_cast<Signature>(p & 0xFFu);
    return k;
  }

  friend constexpr bool operator==(const KeyLayout&,
                                   const KeyLayout&) = default;

 private:
  explicit constexpr KeyLayout(int bits)
      : bits_(static_cast<std::uint8_t>(bits)),
        slots_(static_cast<std::uint8_t>(
            56 / bits >= 2 ? std::min(4, 56 / bits) : 0)),
        none_((std::uint64_t{1} << bits) - 1) {
    for (int s = 0; s < slots_; ++s) {
      shift_[s] = static_cast<std::uint8_t>(8 + (slots_ - 1 - s) * bits);
      limit_[s] = static_cast<VertexId>(none_);
    }
  }

  std::uint8_t bits_;
  std::uint8_t slots_;
  std::uint64_t none_;
  std::array<std::uint8_t, 4> shift_{};  // 0 past slots_
  std::array<VertexId, 4> limit_{};      // none_, and 0 past slots_
};

/// One packed row: a packed key and its count, 16 bytes — the row of the
/// packed flat rows (flat_rows.hpp).
struct PackedFlatRow {
  std::uint64_t k = 0;
  Count c = 0;
};

}  // namespace ccbt
