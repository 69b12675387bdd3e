// Hand-computed unit tests for the engine's join primitives on tiny
// graphs: each primitive is checked against counts derived on paper, so
// failures localize to a single join rather than the whole pipeline.

#include <gtest/gtest.h>

#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

/// Fixture: a 4-vertex path graph 0-1-2-3 with all-distinct colors, plus
/// a star for degree-order checks.
class PrimitivesTest : public ::testing::Test {
 protected:
  PrimitivesTest()
      : g_(path_graph(4)),
        chi_(std::vector<std::uint8_t>{0, 1, 2, 3}, 4),
        order_(g_),
        cx_{g_, chi_, order_, BlockPartition(4, 2), nullptr, opts_} {}

  ExecOptions opts_;
  CsrGraph g_;
  Coloring chi_;
  DegreeOrder order_;
  ExecContext cx_;
};

TEST_F(PrimitivesTest, InitFromGraphEnumeratesOrderedEdges) {
  const ProjTable t = init_path_from_graph(cx_, ExtendOpts{});
  // 3 undirected edges -> 6 ordered pairs, all distinctly colored.
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.total(), 6u);
  t.for_each_entry([&](const TableEntry& e) {
    EXPECT_TRUE(g_.has_edge(e.key.v[0], e.key.v[1]));
    EXPECT_EQ(signature_size(e.key.sig), 2);
    EXPECT_EQ(e.cnt, 1u);
  });
}

TEST_F(PrimitivesTest, InitFromGraphAnchorFilterHalves) {
  ExtendOpts o;
  o.anchor_higher = true;
  const ProjTable t = init_path_from_graph(cx_, o);
  // Exactly one orientation per edge survives u ≻ w.
  EXPECT_EQ(t.size(), 3u);
  t.for_each_entry([&](const TableEntry& e) {
    EXPECT_TRUE(order_.higher(e.key.v[0], e.key.v[1]));
  });
}

TEST_F(PrimitivesTest, ExtendWithGraphWalksPaths) {
  ProjTable edges = init_path_from_graph(cx_, ExtendOpts{});
  ProjTable paths2 = extend_with_graph(cx_, edges, ExtendOpts{});
  // Ordered simple 2-edge paths in P4: (0,1,2),(1,2,3),(2,1,0),(3,2,1),
  // (0,1,2) reversed... count: 4 ordered paths of length 2.
  EXPECT_EQ(paths2.total(), 4u);
  ProjTable paths3 = extend_with_graph(cx_, paths2, ExtendOpts{});
  // 3-edge ordered paths in P4: the whole path, 2 orientations.
  EXPECT_EQ(paths3.total(), 2u);
  const ProjTable paths4 = extend_with_graph(cx_, paths3, ExtendOpts{});
  EXPECT_EQ(paths4.total(), 0u);
}

TEST_F(PrimitivesTest, ExtendTracksFrontierIntoSlot) {
  ProjTable edges = init_path_from_graph(cx_, ExtendOpts{});
  ExtendOpts o;
  o.track_slot = 2;
  const ProjTable t = extend_with_graph(cx_, edges, o);
  t.for_each_entry([&](const TableEntry& e) {
    EXPECT_EQ(e.key.v[2], e.key.v[1]);  // tracked slot mirrors frontier
  });
}

TEST_F(PrimitivesTest, NodeJoinMultipliesCompatibleCounts) {
  // Unary child at vertex 1 with color-3 partner: child counts matches
  // of a pendant structure; join must multiply counts and merge sigs.
  TableKey ck;
  ck.v[0] = 1;
  ck.sig = chi_.bit(1) | chi_.bit(3);  // colors {1,3}
  const ProjTable child = sink_table(1, {{ck, 5}}, 4);

  // Path entries ending at vertex 1: (0,1) and (2,1).
  ProjTable edges = init_path_from_graph(cx_, ExtendOpts{});
  const ProjTable joined = node_join(cx_, edges, child, /*slot=*/1);
  // (0,1): sig {0,1} ∩ child {1,3} == {1} ✓ -> cnt 5.
  // (2,1): sig {2,1} ∩ {1,3} == {1} ✓ -> cnt 5.
  // (3,2) etc. have no child group -> dropped? No: node_join keeps only
  // entries with a compatible child row, since the child constrains the
  // subquery. Entries at other vertices vanish.
  Count total = 0;
  joined.for_each_entry([&](const TableEntry& e) {
    EXPECT_EQ(e.key.v[1], 1u);
    EXPECT_EQ(e.cnt, 5u);
    EXPECT_TRUE(signature_contains(e.key.sig, 3));
    total += e.cnt;
  });
  EXPECT_EQ(total, 10u);
}

TEST_F(PrimitivesTest, NodeJoinRejectsOverlappingColors) {
  TableKey ck;
  ck.v[0] = 1;
  ck.sig = chi_.bit(1) | chi_.bit(0);  // colors {0,1}: overlaps path (0,1)
  const ProjTable child = sink_table(1, {{ck, 7}}, 4);
  ProjTable edges = init_path_from_graph(cx_, ExtendOpts{});
  const ProjTable joined = node_join(cx_, edges, child, 1);
  // Only (2,1) qualifies: sig {2,1} ∩ {0,1} == {1}. (0,1) overlaps on 0.
  ASSERT_EQ(joined.size(), 1u);
  TableEntry tmp;
  EXPECT_EQ(joined.row_at(0, tmp).key.v[0], 2u);
}

TEST_F(PrimitivesTest, ExtendWithChildJoinsOnFrontier) {
  // Child binary table standing in for a contracted block between
  // vertices 1 and 3 (not an edge of P4): join from frontier 1 to 3. The
  // extend reads it oriented opposite to the walk, as the row (3, 1).
  TableKey ck;
  ck.v[0] = 1;
  ck.v[1] = 3;
  ck.sig = chi_.bit(1) | chi_.bit(3);
  const ProjTable child = sink_table(2, {{ck, 4}}, 4).transposed(4);

  ProjTable edges = init_path_from_graph(cx_, ExtendOpts{});
  const ProjTable out = extend_with_child(cx_, edges, child, ExtendOpts{});
  // Path entries ending at 1: (0,1) sig{0,1} -> extend to 3, sig{0,1,3},
  // cnt 4; (2,1) sig{2,1} -> extend to 3, cnt 4.
  EXPECT_EQ(out.total(), 8u);
  out.for_each_entry([&](const TableEntry& e) {
    EXPECT_EQ(e.key.v[1], 3u);
    EXPECT_EQ(signature_size(e.key.sig), 3);
  });
}

TEST_F(PrimitivesTest, MergeHalvesRequiresEndpointOnlyOverlap) {
  // Build two half tables over a shared (u=0, v=2) pair.
  auto make_half = [&](Signature mid_color_bit, Count cnt) {
    TableKey k;
    k.v[0] = 0;
    k.v[1] = 2;
    k.sig = chi_.bit(VertexId{0}) | chi_.bit(VertexId{2}) | mid_color_bit;
    return path_table(2, {{k, cnt}}, 4);
  };
  ProjTable plus = make_half(Signature{1} << 1, 3);   // interior color 1
  ProjTable minus_ok = make_half(Signature{1} << 3, 5);   // color 3: disjoint
  ProjTable minus_bad = make_half(Signature{1} << 1, 5);  // overlaps interior

  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {0, 1};
  FlatRows sink_ok(cx_.key_layout());
  merge_halves(cx_, plus, minus_ok, spec, sink_ok);
  ASSERT_EQ(sink_ok.size(), 1u);
  const std::vector<TableEntry> ok = sink_ok.take_wide();
  EXPECT_EQ(ok[0].cnt, 15u);
  EXPECT_EQ(signature_size(ok[0].key.sig), 4);

  FlatRows sink_bad(cx_.key_layout());
  merge_halves(cx_, plus, minus_bad, spec, sink_bad);
  EXPECT_EQ(sink_bad.size(), 0u);
}

TEST_F(PrimitivesTest, MergeSpecProjectsChosenSlots) {
  TableKey pk;
  pk.v[0] = 0;
  pk.v[1] = 2;
  pk.v[2] = 1;  // tracked interior vertex on the plus path
  pk.sig = chi_.bit(VertexId{0}) | chi_.bit(VertexId{2}) |
           chi_.bit(VertexId{1});
  TableKey mk;
  mk.v[0] = 0;
  mk.v[1] = 2;
  mk.sig = chi_.bit(VertexId{0}) | chi_.bit(VertexId{2}) |
           chi_.bit(VertexId{3});
  const ProjTable plus = path_table(2, {{pk, 2}}, 4);
  const ProjTable minus = path_table(2, {{mk, 3}}, 4);
  MergeSpec spec;
  spec.out_arity = 1;
  spec.out[0] = {0, 2};  // project the tracked vertex
  FlatRows sink(cx_.key_layout());
  merge_halves(cx_, plus, minus, spec, sink);
  ASSERT_EQ(sink.size(), 1u);
  const std::vector<TableEntry> out = sink.take_wide();
  EXPECT_EQ(out[0].key.v[0], 1u);
  EXPECT_EQ(out[0].cnt, 6u);
}

TEST_F(PrimitivesTest, AggregateCollapsesToRequestedArity) {
  const ProjTable edges = init_path_from_graph(cx_, ExtendOpts{});
  const ProjTable unary = aggregate(cx_, edges, 1);
  // Per-anchor out-degree: v0:1, v1:2, v2:2, v3:1.
  EXPECT_EQ(unary.total(), 6u);
  const ProjTable scalar = aggregate(cx_, edges, 0);
  // One row per distinct signature: {0,1}, {1,2}, {2,3}.
  ASSERT_EQ(scalar.size(), 3u);
  EXPECT_EQ(scalar.total(), 6u);
}

TEST_F(PrimitivesTest, BudgetEnforcedDuringAccumulation) {
  ExecOptions tight = opts_;
  tight.max_table_entries = 2;
  const ExecContext cx{g_, chi_, order_, BlockPartition(4, 1), nullptr,
                       tight};
  EXPECT_THROW(init_path_from_graph(cx, ExtendOpts{}), BudgetExceeded);
}

TEST(PrimitivesStarTest, AnchorFilterPrunesHubExtensions) {
  // Star graph: hub 0 is the unique highest vertex. With the ≻ filter,
  // only paths anchored at the hub survive — the MINBUCKET effect.
  const CsrGraph g = star_graph(6);
  const Coloring chi(std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5, 0}, 6);
  const DegreeOrder order(g);
  ExecOptions opts;
  const ExecContext cx{g, chi, order, BlockPartition(7, 1), nullptr, opts};
  ExtendOpts o;
  o.anchor_higher = true;
  ProjTable t = init_path_from_graph(cx, o);
  t.for_each_entry([&](const TableEntry& e) {
    EXPECT_EQ(e.key.v[0], 0u);  // all anchored at the hub
  });
  // Extending from a leaf only reaches the hub, which is never ≻-lower:
  // second extension dies out entirely (no 2-paths anchored above both).
  const ProjTable t2 = extend_with_graph(cx, t, o);
  t2.for_each_entry([&](const TableEntry& e) {
    EXPECT_EQ(e.key.v[0], 0u);
  });
}

}  // namespace
}  // namespace ccbt
