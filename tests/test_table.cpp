// Unit tests for signatures, table keys, the summing sink, and the
// projection-table operations the join engine relies on.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/table/signature.hpp"
#include "unique_rows.hpp"

namespace ccbt {
namespace {

TableKey key2(VertexId u, VertexId v, Signature sig) {
  TableKey k;
  k.v[0] = u;
  k.v[1] = v;
  k.sig = sig;
  return k;
}

TEST(SignatureTest, FullAndContains) {
  EXPECT_EQ(full_signature(3), 0b111u);
  EXPECT_EQ(signature_size(0b1011u), 3);
  EXPECT_TRUE(signature_contains(0b100u, 2));
  EXPECT_FALSE(signature_contains(0b100u, 1));
}

TEST(SignatureTest, NodeJoinCompatibility) {
  // Path colors {0,1}, child colors {1,2}, joint color 1: compatible.
  EXPECT_TRUE(node_join_compatible(0b011, 0b110, 0b010));
  // Overlap beyond the joint color: incompatible.
  EXPECT_FALSE(node_join_compatible(0b111, 0b110, 0b010));
  // Child missing the joint color: incompatible.
  EXPECT_FALSE(node_join_compatible(0b011, 0b100, 0b010));
}

TEST(SignatureTest, MergeCompatibility) {
  // Halves sharing exactly the two endpoint colors.
  EXPECT_TRUE(merge_compatible(0b0111, 0b1101, 0b0101));
  EXPECT_FALSE(merge_compatible(0b0111, 0b0111, 0b0101));
}

TEST(TableKeyTest, Equality) {
  const TableKey a = key2(1, 2, 0b11);
  TableKey b = key2(1, 2, 0b11);
  EXPECT_EQ(a, b);
  b.sig = 0b101;
  EXPECT_NE(a, b);
}

TEST(TableKeyTest, UnusedSlotsParticipateUniformly) {
  TableKey a = key2(1, 2, 1);
  TableKey b = key2(1, 2, 1);
  b.v[2] = 9;
  EXPECT_NE(a, b);
}

TEST(FlatRowsSink, SumsDuplicates) {
  FlatRows sink(KeyLayout::for_vertices(3));
  sink.append(key2(1, 2, 3), 5);
  sink.append(key2(1, 2, 3), 7);
  sink.append(key2(2, 1, 3), 1);
  sink.sum_duplicates();
  EXPECT_EQ(sink.size(), 2u);
  const auto entries = sink.take_wide();
  Count total = 0;
  for (const auto& e : entries) total += e.cnt;
  EXPECT_EQ(total, 13u);
}

TEST(FlatRowsSink, SummingAgainAddsNoRows) {
  FlatRows sink(KeyLayout::for_vertices(10001));
  for (VertexId i = 0; i < 10000; ++i) sink.append(key2(i, i + 1, 1), 1);
  sink.sum_duplicates();
  EXPECT_EQ(sink.size(), 10000u);
  // Every key still sums: re-adding does not keep new rows.
  for (VertexId i = 0; i < 10000; ++i) sink.append(key2(i, i + 1, 1), 1);
  sink.sum_duplicates();
  EXPECT_EQ(sink.size(), 10000u);
  for (std::size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink.count_at(i), 2u);
  }
}

/// A stored table of the given rows over a 16-vertex graph.
ProjTable table_of(const std::vector<TableEntry>& rows) {
  return sink_table(2, rows, 16);
}

TEST(ProjTableTest, TotalSumsCounts) {
  const ProjTable t = table_of({{key2(1, 2, 1), 10}, {key2(3, 4, 2), 32}});
  EXPECT_EQ(t.total(), 42u);
  EXPECT_EQ(t.arity(), 2);
}

TEST(ProjTableTest, SinkTableGroupsByV0) {
  const ProjTable t = table_of(
      {{key2(5, 1, 1), 1}, {key2(3, 2, 1), 2}, {key2(5, 9, 2), 3}});
  EXPECT_EQ(t.order(), SortOrder::kByV0);
  EXPECT_TRUE(t.has_bucket_index());
  const auto g5 = t.group(0, 5);
  EXPECT_EQ(g5.size(), 2u);
  const auto g3 = t.group(0, 3);
  EXPECT_EQ(g3.size(), 1u);
  EXPECT_TRUE(t.group(0, 4).empty());
}

TEST(ProjTableTest, PathTableGroupsByFrontier) {
  const ProjTable t = path_table(
      2, {{key2(1, 7, 1), 1}, {key2(2, 7, 1), 2}, {key2(3, 8, 1), 3}}, 16,
      /*dense=*/true);
  EXPECT_EQ(t.order(), SortOrder::kByV1);
  EXPECT_EQ(t.group(1, 7).size(), 2u);
  EXPECT_EQ(t.group(1, 8).size(), 1u);
}

TEST(ProjTableTest, TransposeSwapsBoundaryOrder) {
  const ProjTable t = table_of({{key2(1, 2, 1), 4}});
  const ProjTable tt = t.transposed(16);
  EXPECT_EQ(tt.order(), SortOrder::kByV0);
  ASSERT_EQ(tt.size(), 1u);
  EXPECT_EQ(tt.entries()[0].key.v[0], 2u);
  EXPECT_EQ(tt.entries()[0].key.v[1], 1u);
  EXPECT_EQ(tt.entries()[0].cnt, 4u);
}

/// aggregate() under a context with no load model.
ProjTable aggregate_unmodeled(const ProjTable& t, int new_arity) {
  const CsrGraph g = path_graph(16);
  const Coloring chi(16, 3, 1);
  const DegreeOrder order(g);
  const ExecContext cx{g, chi, order, BlockPartition(16, 1), nullptr, {}};
  return aggregate(cx, t, new_arity);
}

TEST(ProjTableTest, AggregateSumsOutSlots) {
  ProjTable t = table_of(
      {{key2(1, 2, 1), 4}, {key2(1, 3, 1), 6}, {key2(2, 9, 1), 1}});
  ProjTable u = aggregate_unmodeled(t, 1);
  EXPECT_EQ(u.arity(), 1);
  EXPECT_EQ(u.size(), 2u);  // keys 1 and 2
  EXPECT_EQ(u.order(), SortOrder::kByV0);
  EXPECT_EQ(u.group(0, 1)[0].cnt, 10u);
}

TEST(ProjTableTest, AggregateKeepsSignaturesSeparate) {
  ProjTable t = table_of({{key2(1, 2, 0b01), 4}, {key2(1, 3, 0b10), 6}});
  const ProjTable u = aggregate_unmodeled(t, 1);
  EXPECT_EQ(u.size(), 2u);  // same vertex, different signatures
}

TEST(ProjTableTest, EmptyTableBehaves) {
  const ProjTable t(2);
  EXPECT_TRUE(t.group(0, 0).empty());
  EXPECT_EQ(t.total(), 0u);
}

}  // namespace
}  // namespace ccbt
