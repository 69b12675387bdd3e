#pragma once
// Query plans and plan selection.
//
// Section 6 of the paper ranks decomposition trees by the lexicographic
// minimum of (i) the longest cycle block, (ii) the number of boundary
// nodes and (iii) the number of annotations (PlanFeatures), and reports
// that order optimal on ~90% of query/graph pairs. This engine runs the
// DB split as fused prefix walks, and there that order takes the slower
// plan of every multi-plan catalog query that has a pendant: Figure 14's
// grid (scale 0.1, 512 ranks) finds it optimal on 13/24 cells, worst
// error 86%.
//
// make_plan instead takes the minimum of a graph-free structural key
// (PlanKey), lexicographic over:
//   1. the longest cycle block;
//   2. the total length of bare far cycles: cycle blocks with two
//      boundary nodes that are not adjacent on the cycle and carry no
//      annotation. Their binary table is keyed by vertex pairs at distance
//      >= 2, far more pairs than the edges that key the table of two
//      adjacent boundary nodes;
//   3. the node annotations carried inside cycle blocks, because a
//      pendant folded into a cycle's walks multiplies every walk row;
//   4. the sum over cycle blocks of length x boundary count;
//   5. the most annotations on any one block;
//   6. the sum over cycle blocks of length x node annotations, which
//      breaks satellite's one tie on 1-5 toward the plan that folds the
//      pendant into a triangle rather than a 5-cycle (faster at one thread
//      on condMat, enron and roadNetCA at scale 0.5: 67 vs 72, 404 vs
//      501 and 36 vs 38 ms).
// Measured with bench_fig14_plan_quality: on its 24 cells (scale 0.1,
// 512 simulated ranks) the key is optimal on 23, worst error 19%, and on
// its one-thread wall column (scale 0.5, median of 5 colorings) it is
// never slower than the Section 6 choice beyond 10% noise; fig15's
// condMat x dros runs 1.35-1.5x faster. The exception is roadNetCA x
// ecoli1, which loses 17-19%: the key hangs both triangles off the bridge
// edge rather than folding the bridge into one triangle's walks. On enron
// and condMat the Section 6 plan there takes 37-45% more simulated time,
// so no graph-free rule takes the best plan on all three graphs. Every
// catalog query that has a cycle has a unique minimum key, so its choice
// never depends on enumeration order; leaf-only plans can tie, and then
// the first enumerated is taken.

#include <compare>
#include <cstddef>
#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/decomp/tree_enum.hpp"
#include "ccbt/query/query_graph.hpp"

namespace ccbt {

/// Section 6's features, compared lexicographically in member order.
struct PlanFeatures {
  int longest_cycle = 0;
  int total_boundary = 0;
  int total_annotations = 0;

  friend auto operator<=>(const PlanFeatures&, const PlanFeatures&) = default;
};

/// make_plan's selection key, compared lexicographically in member order
/// (see the header comment).
struct PlanKey {
  int longest_cycle = 0;
  int bare_far_cycle_length = 0;
  int cycle_node_annotations = 0;
  int cycle_boundary_weight = 0;
  int max_block_annotations = 0;
  int cycle_node_annotation_weight = 0;

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

struct Plan {
  DecompTree tree;
  PlanFeatures features;
  PlanKey key;
};

PlanFeatures features_of(const DecompTree& tree);

/// All distinct plans (decomposition trees + features), enumeration caps
/// as in tree_enum.
std::vector<Plan> enumerate_plans(const QueryGraph& q,
                                  const EnumLimits& limits = {});

/// The plan of minimum PlanKey; the first enumerated on a tie.
Plan make_plan(const QueryGraph& q, const EnumLimits& limits = {});

}  // namespace ccbt
