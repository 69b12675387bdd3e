#pragma once
// Random vertex colorings (the "color coding" in color coding).
//
// A coloring assigns each data vertex one of k colors uniformly at random;
// a match is colorful when all query nodes map to distinctly colored
// vertices. Multiple independent colorings drive the estimator.

#include <array>
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
/// one plan execution processes: a list of colorings, which the engines
/// run one after another. Non-owning: the referenced colorings must
/// outlive the batch (and the ExecContext holding it).
///
/// Lane 0 doubles as the single-coloring view — color(v) / bit(v) without
/// a lane argument — which is all the join kernels read, and a Coloring
/// converts implicitly into a one-lane batch.
class ColoringBatch {
 public:
  ColoringBatch() = default;

  ColoringBatch(const Coloring& single) : n_(1) {  // NOLINT(runtime/explicit)
    lanes_[0] = &single;
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
  }

  int lanes() const { return n_; }
  const Coloring& lane(int l) const { return *lanes_[l]; }

  // Lane 0 view.
  int num_colors() const { return lanes_[0]->num_colors(); }
  VertexId size() const { return lanes_[0]->size(); }
  std::uint8_t color(VertexId v) const { return lanes_[0]->color(v); }
  Signature bit(VertexId v) const { return lanes_[0]->bit(v); }

 private:
  std::array<const Coloring*, kMaxBatchLanes> lanes_{};
  int n_ = 0;
};

}  // namespace ccbt
