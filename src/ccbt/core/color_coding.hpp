#pragma once
// Public API: colorful subgraph counting of treewidth-2 queries.
//
// Typical use:
//   CsrGraph g = ...;
//   QueryGraph q = named_query("brain1");
//   Plan plan = make_plan(q);
//   CountingSession session(g, q, plan, options);
//   Count c = session.count_colorful(coloring);       // one coloring
//   EstimatorResult r = estimate_matches(g, q, opts); // full estimator

#include <memory>
#include <optional>
#include <span>

#include "ccbt/decomp/plan.hpp"
#include "ccbt/engine/executor.hpp"
#include "ccbt/graph/coloring.hpp"
#include "ccbt/graph/csr_graph.hpp"
#include "ccbt/query/query_graph.hpp"

namespace ccbt {

/// Reusable state for counting the same query on the same graph under
/// many colorings (the degree order and plan are coloring independent).
class CountingSession {
 public:
  CountingSession(const CsrGraph& g, const QueryGraph& q, Plan plan,
                  ExecOptions opts = {});

  /// Colorful matches under one coloring; the coloring must use exactly
  /// q.num_nodes() colors over g.num_vertices() vertices.
  ExecStats count_colorful(const Coloring& chi) const;

  /// Colorful matches under every lane of a batch in one plan execution,
  /// which runs the lanes one after another: stats.colorful_lane[l] is
  /// lane l's count, exactly what count_colorful(batch.lane(l)) would
  /// report, and the other stats are the lanes' sums.
  ExecStats count_colorful(const ColoringBatch& batch) const;

  /// Convenience: fresh random coloring from `seed`.
  ExecStats count_colorful_seeded(std::uint64_t seed) const;

  /// Convenience: one batched execution over fresh random colorings, one
  /// per seed (1 to kMaxBatchLanes seeds).
  ExecStats count_colorful_seeded(std::span<const std::uint64_t> seeds) const;

  const Plan& plan() const { return plan_; }
  const QueryGraph& query() const { return query_; }
  const ExecOptions& options() const { return opts_; }

 private:
  const CsrGraph& graph_;
  QueryGraph query_;
  Plan plan_;
  ExecOptions opts_;
  DegreeOrder degree_order_;
  DegreeOrder id_order_;
};

/// One-shot: count colorful matches with make_plan's plan.
Count count_colorful_matches(const CsrGraph& g, const QueryGraph& q,
                             const Coloring& chi, ExecOptions opts = {});

/// The unbiased-estimator scale factor k^k / k! of Section 2.
double colorful_scale(int k);

}  // namespace ccbt
