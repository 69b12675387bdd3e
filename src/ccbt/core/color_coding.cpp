#include "ccbt/core/color_coding.hpp"

#include <vector>

#include "ccbt/query/treewidth.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

CountingSession::CountingSession(const CsrGraph& g, const QueryGraph& q,
                                 Plan plan, ExecOptions opts)
    : graph_(g),
      query_(q),
      plan_(std::move(plan)),
      opts_(opts),
      degree_order_(g),
      id_order_(DegreeOrder::by_id(g.num_vertices())) {
  check_table_budget(opts_, "CountingSession");
  validate_query(q);
  if (plan_.tree.k != q.num_nodes()) {
    throw Error("CountingSession: plan does not match query size");
  }
}

ExecStats CountingSession::count_colorful(const Coloring& chi) const {
  return count_colorful(ColoringBatch(chi));
}

ExecStats CountingSession::count_colorful(const ColoringBatch& batch) const {
  for (int l = 0; l < batch.lanes(); ++l) {
    if (batch.lane(l).num_colors() != query_.num_nodes() ||
        batch.lane(l).size() != graph_.num_vertices()) {
      throw Error("count_colorful: coloring shape mismatch");
    }
  }
  const DegreeOrder& order = opts_.order_by_id ? id_order_ : degree_order_;
  std::optional<LoadModel> load;
  if (opts_.sim_ranks > 0) load.emplace(opts_.sim_ranks);
  ExecContext cx{graph_,
                 batch,
                 order,
                 BlockPartition(graph_.num_vertices(), opts_.sim_ranks),
                 load ? &*load : nullptr,
                 opts_};
  return run_plan(cx, plan_.tree);
}

ExecStats CountingSession::count_colorful_seeded(std::uint64_t seed) const {
  const Coloring chi(graph_.num_vertices(), query_.num_nodes(), seed);
  return count_colorful(chi);
}

ExecStats CountingSession::count_colorful_seeded(
    std::span<const std::uint64_t> seeds) const {
  std::vector<Coloring> lanes;
  lanes.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    lanes.emplace_back(graph_.num_vertices(), query_.num_nodes(), seed);
  }
  return count_colorful(ColoringBatch(lanes));
}

Count count_colorful_matches(const CsrGraph& g, const QueryGraph& q,
                             const Coloring& chi, ExecOptions opts) {
  CountingSession session(g, q, make_plan(q), opts);
  return session.count_colorful(chi).colorful;
}

double colorful_scale(int k) {
  // k^k / k!, evaluated in floating point to avoid overflow for k near 16.
  double scale = 1.0;
  for (int i = 1; i <= k; ++i) {
    scale *= static_cast<double>(k) / static_cast<double>(i);
  }
  return scale;
}

}  // namespace ccbt
