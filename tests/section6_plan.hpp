#pragma once
// The plan the Section 6 heuristic picks: the PlanFeatures minimum over
// enumerate_plans, the first enumerated on a tie. make_plan ranks plans
// by PlanKey instead; tests whose goldens were recorded from the Section 6
// plan select it here, so their pinned figures stay as recorded.

#include <utility>
#include <vector>

#include "ccbt/decomp/plan.hpp"

namespace ccbt {

inline Plan section6_plan(const QueryGraph& q) {
  std::vector<Plan> plans = enumerate_plans(q);
  std::size_t best = 0;
  for (std::size_t i = 1; i < plans.size(); ++i) {
    if (plans[i].features < plans[best].features) best = i;
  }
  return std::move(plans.at(best));
}

}  // namespace ccbt
