// Unit tests for plan features, make_plan's selection key, and the
// Section 6 heuristic's choice that the pinned-golden tests still run.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "ccbt/decomp/plan.hpp"
#include "ccbt/query/catalog.hpp"
#include "section6_plan.hpp"

namespace ccbt {
namespace {

/// A plan's block structure, blocks in topological order joined by " | ".
/// Each block reads: its kind ("C<length>" a cycle, "L" a leaf edge, "S"
/// the singleton root), "b{...}" its boundary positions, "n<count>" and
/// "e<count>" its node and edge annotations, "-><parent>" its parent.
std::string shape(const DecompTree& t) {
  std::string s;
  for (std::size_t i = 0; i < t.blocks.size(); ++i) {
    const Block& b = t.blocks[i];
    if (i != 0) s += " | ";
    s += b.kind == BlockKind::kCycle      ? "C" + std::to_string(b.length())
         : b.kind == BlockKind::kLeafEdge ? "L"
                                          : "S";
    if (!b.boundary_pos.empty()) {
      s += " b{";
      for (std::size_t j = 0; j < b.boundary_pos.size(); ++j) {
        s += (j != 0 ? "," : "") + std::to_string(b.boundary_pos[j]);
      }
      s += "}";
    }
    int n = 0, e = 0;
    for (int c : b.node_child) n += (c >= 0) ? 1 : 0;
    for (int c : b.edge_child) e += (c >= 0) ? 1 : 0;
    if (n != 0) s += " n" + std::to_string(n);
    if (e != 0) s += " e" + std::to_string(e);
    if (t.parent[i] >= 0) s += " ->" + std::to_string(t.parent[i]);
  }
  return s;
}

bool has_cycle(const DecompTree& t) {
  for (const Block& b : t.blocks) {
    if (b.kind == BlockKind::kCycle) return true;
  }
  return false;
}

TEST(PlanFeatures, ComparatorOrdersLexicographically) {
  PlanFeatures a{4, 3, 2}, b{5, 0, 0}, c{4, 4, 0}, d{4, 3, 3};
  EXPECT_LT(a, b);  // shorter longest cycle wins first
  EXPECT_LT(a, c);  // then fewer boundary nodes
  EXPECT_LT(a, d);  // then fewer annotations
}

TEST(PlanKey, ComparatorOrdersLexicographically) {
  const PlanKey a{5, 0, 2, 19, 2, 6};
  EXPECT_LT(a, (PlanKey{6, 0, 0, 0, 0, 0}));
  EXPECT_LT(a, (PlanKey{5, 5, 0, 0, 0, 0}));
  EXPECT_LT(a, (PlanKey{5, 0, 3, 0, 0, 0}));
  EXPECT_LT(a, (PlanKey{5, 0, 2, 20, 0, 0}));
  EXPECT_LT(a, (PlanKey{5, 0, 2, 19, 3, 0}));
  EXPECT_LT(a, (PlanKey{5, 0, 2, 19, 2, 7}));
}

TEST(PlanFeatures, TriangleFeatures) {
  const Plan plan = make_plan(q_cycle(3));
  EXPECT_EQ(plan.features.longest_cycle, 3);
  EXPECT_EQ(plan.features.total_boundary, 0);
  EXPECT_EQ(plan.features.total_annotations, 0);
  EXPECT_EQ(plan.key, PlanKey{3});
}

TEST(PlanFeatures, TreeQueryHasNoCycles) {
  const Plan plan = make_plan(q_complete_binary_tree(7));
  EXPECT_EQ(plan.features.longest_cycle, 0);
  EXPECT_EQ(plan.key.longest_cycle, 0);
}

TEST(PlanKey, BareFarCyclesAndFoldedPendants) {
  // dros = 5-cycle with a pendant at node 2. Folding the pendant into the
  // cycle puts a node annotation inside it; the chosen plan instead
  // contracts the cycle onto node 2, where it annotates the pendant's
  // leaf edge.
  const auto plans = enumerate_plans(q_dros());
  ASSERT_EQ(plans.size(), 2u);
  for (const Plan& p : plans) {
    EXPECT_EQ(p.key.bare_far_cycle_length, 0);
  }
  EXPECT_EQ(make_plan(q_dros()).key, (PlanKey{5, 0, 0, 5, 1, 0}));
  EXPECT_EQ(section6_plan(q_dros()).key, (PlanKey{5, 0, 1, 0, 1, 5}));
  // satellite's 5-cycle (a,b,c,d,e) contracted first has boundary a and
  // c, which are not adjacent on it: a bare far cycle of length 5.
  int bare = 0;
  for (const Plan& p : enumerate_plans(q_satellite())) {
    bare += p.key.bare_far_cycle_length == 5 ? 1 : 0;
  }
  EXPECT_GT(bare, 0);
}

TEST(MakePlan, Brain1ChoiceIsAUniqueMinimum) {
  // brain1 = C4 and C6 sharing an edge. Its two trees tie on every
  // Section 6 feature, so that order keeps the fast plan (the 4-cycle
  // contracted first) only by enumeration order. The key prefers it by
  // the sum of cycle length x boundary count: 4 x 2 against 6 x 2.
  const auto plans = enumerate_plans(q_brain1());
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].features, plans[1].features);
  const Plan chosen = make_plan(q_brain1());
  EXPECT_EQ(shape(chosen.tree), "C4 b{0,1} ->1 | C6 e1");
  int ties = 0;
  for (const Plan& p : plans) {
    ties += p.key == chosen.key ? 1 : 0;
    EXPECT_LE(chosen.key, p.key);
  }
  EXPECT_EQ(ties, 1);
}

TEST(MakePlan, PinsTheChosenBlockStructureForCatalog) {
  const std::map<std::string, std::string> want{
      {"dros", "C5 b{2} ->1 | L b{0} n1 ->2 | S n1"},
      {"ecoli1", "C3 b{2} ->2 | C3 b{0} ->2 | L b{0} n2 ->3 | S n1"},
      {"ecoli2", "C6 b{3} ->1 | L b{0} n1 ->2 | S n1"},
      {"brain1", "C4 b{0,1} ->1 | C6 e1"},
      {"brain2", "C5 b{0,1} ->1 | C5 b{2} e1 ->2 | L b{0} n1 ->3 | S n1"},
      {"brain3", "C6 b{0,1} ->1 | C6 e1"},
      {"glet1", "C4"},
      {"glet2", "C3 b{1,2} ->1 | C3 e1"},
      {"wiki", "C3 b{0} ->1 | C3 n1"},
      {"youtube", "C3 b{2} ->1 | L b{0} n1 ->2 | L b{0} n1 ->3 | S n1"},
      {"satellite",
       "C3 b{0} ->2 | L b{0} ->2 | C3 b{0,1} n2 ->3 | C5 b{0,2} e1 ->4 | "
       "C4 e1"},
      {"triangle", "C3"},
      {"diamond", "C3 b{1,2} ->1 | C3 e1"},
      {"bowtie", "C3 b{0} ->1 | C3 n1"},
      {"theta", "C3 b{0,1} ->1 | C4 e1"},
      {"binary_tree12",
       "L b{0} ->8 | L b{0} ->2 | L b{0} n1 ->3 | L b{0} n1 ->6 | "
       "L b{0} ->5 | L b{0} n1 ->6 | L b{0} n2 ->7 | L b{0} n1 ->8 | "
       "L b{0} n2 ->10 | L b{0} ->10 | L b{0} n2 ->11 | S n1"},
      {"cycle5", "C5"},
      {"cycle6", "C6"},
      {"path5", "L b{0} ->1 | L b{0} n1 ->2 | L b{0} n1 ->3 | "
                "L b{0} n1 ->4 | S n1"},
      {"star6", "L b{0} ->1 | L b{0} n1 ->2 | L b{0} n1 ->3 | "
                "L b{0} n1 ->4 | L b{0} n1 ->5 | L b{0} n1 ->6 | S n1"},
  };
  for (const std::string& name : catalog_names()) {
    SCOPED_TRACE(name);
    const QueryGraph q = named_query(name);
    const Plan chosen = make_plan(q);
    ASSERT_EQ(want.count(name), 1u);
    EXPECT_EQ(shape(chosen.tree), want.at(name));
    // A query with a cycle block has one plan of least key, so its choice
    // does not depend on enumeration order. Leaf-only plans differ in no
    // cycle term; there the first of the least keys is taken.
    int least = 0;
    for (const Plan& p : enumerate_plans(q)) {
      EXPECT_LE(chosen.key, p.key);
      least += p.key == chosen.key ? 1 : 0;
    }
    if (has_cycle(chosen.tree)) {
      EXPECT_EQ(least, 1);
    }
  }
}

TEST(Section6Plan, TakesTheFirstLeastFeatures) {
  // The pinned-golden tests run this plan: on dros it is the 2-block
  // tree whose 5-cycle carries the pendant.
  const Plan s6 = section6_plan(q_dros());
  EXPECT_EQ(shape(s6.tree), "L b{0} ->1 | C5 n1");
  for (const Plan& p : enumerate_plans(q_dros())) {
    EXPECT_LE(s6.features, p.features);
  }
}

TEST(MakePlan, PlanMatchesQuerySize) {
  const Plan plan = make_plan(q_satellite());
  EXPECT_EQ(plan.tree.k, 11);
}

TEST(EnumeratePlans, FeatureVariationExists) {
  // satellite admits trees with different annotation counts; the
  // enumeration must expose genuinely different feature vectors.
  const auto plans = enumerate_plans(q_satellite());
  ASSERT_GE(plans.size(), 2u);
  bool any_difference = false;
  for (std::size_t i = 1; i < plans.size(); ++i) {
    any_difference |= !(plans[i].features == plans[0].features);
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace ccbt
