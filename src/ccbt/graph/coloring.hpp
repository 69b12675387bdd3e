#pragma once
// Random vertex colorings (the "color coding" in color coding).
//
// A coloring assigns each data vertex one of k colors uniformly at random;
// a match is colorful when all query nodes map to distinctly colored
// vertices. Multiple independent colorings drive the estimator.

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "ccbt/graph/types.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {

class Coloring {
 public:
  Coloring() = default;

  /// Uniform random coloring with k colors over n vertices.
  Coloring(VertexId n, int k, std::uint64_t seed) : k_(k) {
    colors_.resize(n);
    Rng rng(seed);
    for (auto& c : colors_) c = static_cast<std::uint8_t>(rng.below(k));
  }

  /// Explicit coloring (tests).
  Coloring(std::vector<std::uint8_t> colors, int k)
      : k_(k), colors_(std::move(colors)) {}

  int num_colors() const { return k_; }

  std::uint8_t color(VertexId v) const { return colors_[v]; }

  /// Signature bit of v's color.
  Signature bit(VertexId v) const { return Signature{1} << colors_[v]; }

  VertexId size() const { return static_cast<VertexId>(colors_.size()); }

 private:
  int k_ = 0;
  std::vector<std::uint8_t> colors_;
};

/// A batch of up to kMaxBatchLanes independent colorings ("lanes") that
/// one plan execution processes; the engines run its lanes one after
/// another. Non-owning: the referenced colorings must outlive the batch
/// (and the ExecContext holding it).
///
/// Lane 0 doubles as the scalar view — color(v) / bit(v) without a lane
/// argument — so single-coloring code reads a batch exactly like a
/// Coloring, and a Coloring converts implicitly into a one-lane batch.
class ColoringBatch {
 public:
  ColoringBatch() = default;

  ColoringBatch(const Coloring& single) : n_(1) {  // NOLINT(runtime/explicit)
    lanes_[0] = &single;
    pack();
  }

  explicit ColoringBatch(std::span<const Coloring> lanes) {
    if (lanes.empty() || lanes.size() > kMaxBatchLanes) {
      throw Error("ColoringBatch: lane count must be in [1, 8]");
    }
    n_ = static_cast<int>(lanes.size());
    for (int l = 0; l < n_; ++l) {
      if (lanes[l].num_colors() != lanes[0].num_colors() ||
          lanes[l].size() != lanes[0].size()) {
        throw Error("ColoringBatch: lanes disagree on shape");
      }
      lanes_[l] = &lanes[l];
    }
    pack();
  }

  int lanes() const { return n_; }
  const Coloring& lane(int l) const { return *lanes_[l]; }

  // Scalar (lane 0) view.
  int num_colors() const { return lanes_[0]->num_colors(); }
  VertexId size() const { return lanes_[0]->size(); }
  std::uint8_t color(VertexId v) const { return lanes_[0]->color(v); }
  Signature bit(VertexId v) const { return lanes_[0]->bit(v); }

  // Per-lane view.
  std::uint8_t color(VertexId v, int l) const {
    return static_cast<std::uint8_t>(packed_[v] >> (8 * l));
  }
  Signature bit(VertexId v, int l) const {
    return Signature{1} << color(v, l);
  }

  /// All lane colors of v in one word (byte l = lane l's color; 0xFF in
  /// unused lanes), at every lane count.
  std::uint64_t colors_word(VertexId v) const { return packed_[v]; }

  /// Lanes whose coloring gives v exactly the (single-bit) signature
  /// `want` — the per-lane half of the NodeJoin compatibility test.
  LaneMask mask_bit_eq(VertexId v, Signature want) const {
    const auto c =
        static_cast<std::uint64_t>(std::countr_zero(want));
    std::uint64_t w = packed_[v];
    LaneMask m = 0;
    for (int l = 0; l < n_; ++l) {
      m |= static_cast<LaneMask>((w & 0xFF) == c) << l;
      w >>= 8;
    }
    return m;
  }

  /// Lanes where {color(u), color(v)} covers exactly the bits of `want` —
  /// the per-lane half of the path-merge compatibility test.
  LaneMask mask_pair_eq(VertexId u, VertexId v, Signature want) const {
    std::uint64_t wu = packed_[u];
    std::uint64_t wv = packed_[v];
    LaneMask m = 0;
    for (int l = 0; l < n_; ++l) {
      const Signature bits = (Signature{1} << (wu & 0xFF)) |
                             (Signature{1} << (wv & 0xFF));
      m |= static_cast<LaneMask>(bits == want) << l;
      wu >>= 8;
      wv >>= 8;
    }
    return m;
  }

 private:
  /// Interleave the lane colors: byte l of packed_[v] is lane l's color
  /// of v, so the hot per-lane loops read ONE word per vertex instead of
  /// chasing n_ separate color arrays. Unused lane bytes hold 0xFF (never
  /// a valid color).
  void pack() {
    packed_.resize(lanes_[0]->size());
    for (VertexId v = 0; v < lanes_[0]->size(); ++v) {
      std::uint64_t word = ~std::uint64_t{0};
      for (int l = 0; l < n_; ++l) {
        word &= ~(std::uint64_t{0xFF} << (8 * l));
        word |= std::uint64_t{lanes_[l]->color(v)} << (8 * l);
      }
      packed_[v] = word;
    }
  }

  std::array<const Coloring*, kMaxBatchLanes> lanes_{};
  std::vector<std::uint64_t> packed_;
  int n_ = 0;
};

}  // namespace ccbt
