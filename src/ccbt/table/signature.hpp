#pragma once
// Color signatures (Section 4.2): the set of colors used by a partial
// colorful match, maintained as a bitmask ("Signatures are maintained as
// bitmaps", Section 7). All compatibility checks in the join procedures
// reduce to fast bitwise operations.

#include <bit>

#include "ccbt/graph/types.hpp"

namespace ccbt {

inline constexpr Signature full_signature(int k) {
  return (Signature{1} << k) - 1;
}

inline constexpr int signature_size(Signature s) { return std::popcount(s); }

inline constexpr bool signature_contains(Signature s, int color) {
  return (s >> color) & 1u;
}

// Exact one- and two-color tests for the join hot loops. Baseline x86-64
// has no POPCNT instruction, so std::popcount there is a libgcc call that
// also keeps the merge prefilters from vectorizing; clearing the lowest
// set bit (s & (s - 1)) is branchless and vectorizes.

/// Exactly one color set (popcount(s) == 1).
inline constexpr bool one_color(Signature s) {
  return (s != 0) & ((s & (s - 1)) == 0);
}

/// Exactly two colors set (popcount(s) == 2).
inline constexpr bool two_colors(Signature s) {
  return one_color(s & (s - 1));
}

/// The NodeJoin compatibility test of Figure 7: the child match shares
/// exactly the joint vertex's color with the path match.
inline constexpr bool node_join_compatible(Signature path, Signature child,
                                           Signature joint_bit) {
  return (path & child) == joint_bit;
}

/// The path-merge compatibility test of Figure 6, Procedure 2: the two
/// half-cycle matches share exactly the colors of the two shared
/// endpoints.
inline constexpr bool merge_compatible(Signature a, Signature b,
                                       Signature endpoint_bits) {
  return (a & b) == endpoint_bits;
}

}  // namespace ccbt
