// Plan explorer: shows the Section 4 decomposition and plan selection at
// work. For each named query it prints every decomposition tree (blocks,
// cycle lengths, boundary counts, annotations) with its Section 6
// features and make_plan's key, and marks both choices — the Figure 2
// walk-through, programmatically.
//
// Build & run:  ./examples/plan_explorer

#include <iostream>

#include "ccbt/core/ccbt.hpp"
#include "ccbt/decomp/decompose.hpp"

namespace {

using namespace ccbt;

const char* kind_name(BlockKind k) {
  switch (k) {
    case BlockKind::kLeafEdge: return "leaf-edge";
    case BlockKind::kCycle: return "cycle";
    case BlockKind::kSingleton: return "singleton";
  }
  return "?";
}

void describe(const DecompTree& tree) {
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& b = tree.blocks[i];
    std::cout << "    B" << i << ": " << kind_name(b.kind);
    if (b.kind == BlockKind::kCycle) {
      std::cout << " length " << b.length() << ", " << b.boundary_count()
                << " boundary node(s)";
    }
    std::cout << ", nodes {";
    for (std::size_t j = 0; j < b.nodes.size(); ++j) {
      std::cout << (j ? "," : "") << int(b.nodes[j]);
    }
    std::cout << "}";
    int annotations = 0;
    for (int c : b.node_child) annotations += (c >= 0);
    for (int c : b.edge_child) annotations += (c >= 0);
    if (annotations > 0) std::cout << ", " << annotations << " annotation(s)";
    if (static_cast<int>(i) == tree.root) std::cout << "  <- root";
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  using namespace ccbt;

  for (const char* name : {"satellite", "brain1", "brain2", "glet2"}) {
    const QueryGraph q = named_query(name);
    std::cout << "=== query '" << name << "' (" << q.num_nodes()
              << " nodes, " << q.num_edges() << " edges) ===\n";
    const Plan chosen = make_plan(q);
    const std::string chosen_canon =
        Contractor::canonical_string(chosen.tree);
    const auto plans = enumerate_plans(q);
    std::size_t section6 = 0;
    for (std::size_t p = 1; p < plans.size(); ++p) {
      if (plans[p].features < plans[section6].features) section6 = p;
    }
    std::cout << plans.size() << " decomposition tree(s):\n";
    for (std::size_t p = 0; p < plans.size(); ++p) {
      const PlanFeatures& f = plans[p].features;
      const PlanKey& k = plans[p].key;
      std::cout << "  plan " << p << " [Section 6: longest cycle "
                << f.longest_cycle << ", boundary " << f.total_boundary
                << ", annotations " << f.total_annotations << "] [key: "
                << k.longest_cycle << ", " << k.bare_far_cycle_length << ", "
                << k.cycle_node_annotations << ", " << k.cycle_boundary_weight
                << ", " << k.max_block_annotations << ", "
                << k.cycle_node_annotation_weight << "]"
                << (Contractor::canonical_string(plans[p].tree) == chosen_canon
                        ? "  ** make_plan **"
                        : "")
                << (p == section6 ? "  (Section 6 choice)" : "") << "\n";
      describe(plans[p].tree);
    }
    std::cout << "\n";
  }
  std::cout
      << "Section 6 prefers (i) the shortest longest cycle, then (ii) the\n"
      << "fewest boundary nodes, then (iii) the fewest annotations.\n"
      << "make_plan ranks by a key measured on this engine: (1) the longest\n"
      << "cycle, (2) the total length of bare far cycles (two boundary\n"
      << "nodes not adjacent on the cycle, no annotation), (3) the node\n"
      << "annotations inside cycle blocks, (4) the sum of cycle length x\n"
      << "boundary count, (5) the most annotations on one block, (6) the\n"
      << "sum of cycle length x node annotations. Figure 14's bench runs\n"
      << "every plan and reports both choices' distance from the fastest:\n"
      << "the key is optimal on 23 of its 24 cells, the Section 6 order on\n"
      << "13. Its one miss is roadNetCA x ecoli1, whose best plan is slower\n"
      << "on enron and condMat.\n";
  return 0;
}
