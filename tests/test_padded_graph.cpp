// Padded-graph oracle for the packed key layout (table/table_key.hpp). The
// packed key's vertex fields are sized to the data graph, so padding a
// small random graph with isolated vertices past 2^14 vertices (four slots
// become three) and past 2^18 (three become two) runs every field width
// through production code. Isolated vertices take part in no match, so
// every colorful count must equal the unpadded graph's, which
// count_colorful_exact enumerates without any engine code:
//   * padding after the graph keeps its vertex ids, and Coloring(n, k,
//     seed) draws vertex by vertex, so the original vertices keep their
//     colours;
//   * padding before it moves its ids to the top of the range, next to the
//     all-ones field that encodes kNoVertex, under the same colours.
// Both engines run DB and PS on dros, brain1 and wiki, whose DB walks
// track one and two interior boundary nodes in key slots 2 and 3.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/decomp/plan.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"

namespace ccbt {
namespace {

/// `g` with `pad` isolated vertices added, before its own when `front`
/// (shifting its ids up by `pad`), after them otherwise.
CsrGraph padded(const CsrGraph& g, VertexId pad, bool front) {
  EdgeList list;
  const VertexId shift = front ? pad : 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u < v) list.add(u + shift, v + shift);
    }
  }
  list.num_vertices = g.num_vertices() + pad;
  return CsrGraph::from_edges(list);
}

/// `chi` over n vertices moved up by `pad`, the padding coloured 0.
Coloring shifted(const Coloring& chi, VertexId n, VertexId pad) {
  std::vector<std::uint8_t> colors(n + pad, 0);
  for (VertexId v = 0; v < n; ++v) colors[pad + v] = chi.color(v);
  return Coloring(std::move(colors), chi.num_colors());
}

TEST(PaddedGraph, CountsMatchTheUnpaddedGraphAtEveryFieldWidth) {
  const VertexId n = 40;
  const CsrGraph g = erdos_renyi(n, 110, 2024);
  struct Width {
    VertexId total;
    int slots;
  };
  int nonzero = 0;
  for (const Width w : {Width{(1u << 14) + 5, 3}, Width{(1u << 18) + 5, 2}}) {
    ASSERT_EQ(KeyLayout::for_vertices(w.total).slots(), w.slots);
    for (const bool front : {false, true}) {
      const CsrGraph big = padded(g, w.total - n, front);
      ASSERT_EQ(big.num_vertices(), w.total);
      for (const char* name : {"dros", "brain1", "wiki"}) {
        const QueryGraph q = named_query(name);
        const Plan plan = make_plan(q);
        for (const std::uint64_t seed : {7u, 8u}) {
          const Coloring chi(n, q.num_nodes(), seed);
          const Coloring big_chi =
              front ? shifted(chi, n, w.total - n)
                    : Coloring(w.total, q.num_nodes(), seed);
          for (VertexId v = 0; v < n; ++v) {
            ASSERT_EQ(big_chi.color(v + (front ? w.total - n : 0)),
                      chi.color(v));
          }
          const Count want = count_colorful_exact(g, q, chi);
          nonzero += want != 0;
          for (const Algo algo : {Algo::kDB, Algo::kPS}) {
            SCOPED_TRACE(std::string(name) + " n=" +
                         std::to_string(w.total) + " front=" +
                         std::to_string(front) + " seed=" +
                         std::to_string(seed) + " " + algo_name(algo));
            ExecOptions opts;
            opts.algo = algo;
            const CountingSession session(big, q, plan, opts);
            EXPECT_EQ(session.count_colorful(big_chi).colorful, want);
            EXPECT_EQ(
                run_plan_distributed(big, plan.tree, big_chi, 2, opts)
                    .colorful,
                want);
          }
        }
      }
    }
  }
  // Most draws find matches, so the counts compared are not all zero.
  EXPECT_GE(nonzero, 16);
}

}  // namespace
}  // namespace ccbt
