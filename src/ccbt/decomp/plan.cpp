#include "ccbt/decomp/plan.hpp"

#include <algorithm>

#include "ccbt/util/error.hpp"

namespace ccbt {
namespace {

int annotations(const Block& b) {
  int n = 0;
  for (int c : b.node_child) n += (c >= 0) ? 1 : 0;
  for (int c : b.edge_child) n += (c >= 0) ? 1 : 0;
  return n;
}

/// Two boundary nodes that are not neighbours on the cycle.
bool far_boundary(const Block& b) {
  if (b.boundary_count() != 2) return false;
  const int gap = b.boundary_pos[1] - b.boundary_pos[0];
  return gap != 1 && gap != b.length() - 1;
}

PlanKey key_of(const DecompTree& tree) {
  PlanKey key;
  for (const Block& b : tree.blocks) {
    const int a = annotations(b);
    key.max_block_annotations = std::max(key.max_block_annotations, a);
    if (b.kind != BlockKind::kCycle) continue;
    key.longest_cycle = std::max(key.longest_cycle, b.length());
    if (a == 0 && far_boundary(b)) key.bare_far_cycle_length += b.length();
    int node_annotations = 0;
    for (int c : b.node_child) node_annotations += (c >= 0) ? 1 : 0;
    key.cycle_node_annotations += node_annotations;
    key.cycle_boundary_weight += b.length() * b.boundary_count();
    key.cycle_node_annotation_weight += b.length() * node_annotations;
  }
  return key;
}

}  // namespace

PlanFeatures features_of(const DecompTree& tree) {
  PlanFeatures f;
  for (const Block& b : tree.blocks) {
    if (b.kind == BlockKind::kCycle) {
      f.longest_cycle = std::max(f.longest_cycle, b.length());
    }
    f.total_boundary += b.boundary_count();
    f.total_annotations += annotations(b);
  }
  return f;
}

std::vector<Plan> enumerate_plans(const QueryGraph& q,
                                  const EnumLimits& limits) {
  std::vector<Plan> plans;
  for (DecompTree& tree : enumerate_decompositions(q, limits)) {
    const PlanFeatures f = features_of(tree);
    const PlanKey key = key_of(tree);
    plans.push_back(Plan{std::move(tree), f, key});
  }
  return plans;
}

Plan make_plan(const QueryGraph& q, const EnumLimits& limits) {
  std::vector<Plan> plans = enumerate_plans(q, limits);
  if (plans.empty()) {
    throw UnsupportedQuery("make_plan: no decomposition tree found");
  }
  auto best = std::min_element(
      plans.begin(), plans.end(),
      [](const Plan& a, const Plan& b) { return a.key < b.key; });
  return std::move(*best);
}

}  // namespace ccbt
