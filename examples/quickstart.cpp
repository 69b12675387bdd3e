// Quickstart: estimate how many 5-cycles a heavy-tailed graph contains.
//
//   1. build (or load) a data graph;
//   2. pick a treewidth-2 query;
//   3. let the planner decompose it;
//   4. run the estimator (color coding with the DB algorithm).
//
// Build & run:  ./examples/quickstart

#include <iostream>

#include "ccbt/core/ccbt.hpp"

int main() {
  using namespace ccbt;

  // A 20k-node Chung-Lu graph with a power-law degree tail — the random
  // model the paper analyzes (Section 9.2). Swap in
  // CsrGraph::from_edges(read_edge_list_file("my.edges")) for real data.
  const CsrGraph graph = chung_lu_power_law(
      /*n=*/8'000, /*alpha=*/1.8, /*avg_degree=*/6.0, /*seed=*/1);
  std::cout << "data graph: " << graph.num_vertices() << " vertices, "
            << graph.num_edges() << " edges, max degree "
            << graph.max_degree() << "\n";

  // Any connected treewidth-2 query works; cycles are the canonical
  // beyond-trees case.
  const QueryGraph query = named_query("cycle5");

  // The planner decomposes the query into blocks (Section 4) and picks
  // the decomposition tree of least structural cost (decomp/plan.hpp).
  const Plan plan = make_plan(query);
  std::cout << "plan: " << plan.tree.blocks.size() << " block(s), longest "
            << "cycle " << plan.features.longest_cycle << "\n";

  // Color coding: each trial colors the graph with k=5 random colors,
  // counts colorful matches exactly (DB algorithm), and scales by k^k/k!.
  EstimatorOptions opts;
  opts.trials = 3;
  opts.seed = 2026;
  const EstimatorResult result = estimate_matches(graph, query, opts);

  std::cout << "estimated matches:     " << result.matches << "\n"
            << "estimated occurrences: " << result.occurrences
            << "  (matches / aut(Q), aut=" << result.automorphisms << ")\n"
            << "coefficient of variation over " << opts.trials
            << " trials: " << result.cv << "\n"
            << "total time: " << result.total_wall_seconds << " s\n";
  return 0;
}
