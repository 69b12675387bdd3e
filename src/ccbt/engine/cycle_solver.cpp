#include "ccbt/engine/cycle_solver.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace ccbt {

WalkSchedule schedule_walks(const Block& blk, Algo algo) {
  struct Halves {
    PathOps plus, minus;
    std::optional<PathOp> fused;
  };
  const std::vector<SplitPlan> plans = splits_for(blk, algo);
  std::vector<Halves> todo;
  for (const SplitPlan& plan : plans) {
    Halves h{walk_path(blk, plan.plus), walk_path(blk, plan.minus), {}};
    if (h.minus.back().extends()) {
      h.fused = h.minus.back();
      h.minus.pop_back();
    }
    todo.push_back(std::move(h));
  }
  // Every prefix of a split's two walks, one per walk through it, in
  // build order.
  const auto prefixes = [](const Halves& h) {
    std::vector<PathOps> out;
    for (const PathOps* walk : {&h.plus, &h.minus}) {
      for (auto end = walk->begin() + 1; end <= walk->end(); ++end) {
        out.emplace_back(walk->begin(), end);
      }
    }
    return out;
  };
  WalkSchedule ws;
  std::map<PathOps, int> node_of;
  std::vector<bool> done(todo.size(), false);
  for (std::size_t step = 0; step < todo.size(); ++step) {
    std::size_t best = todo.size(), fewest = 0;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      if (done[i]) continue;
      std::set<PathOps> need;
      for (PathOps& p : prefixes(todo[i])) {
        if (!node_of.contains(p)) need.insert(std::move(p));
      }
      if (best == todo.size() || need.size() < fewest) {
        best = i;
        fewest = need.size();
      }
    }
    done[best] = true;
    const Halves& h = todo[best];
    for (const PathOps& p : prefixes(h)) {
      const auto [it, fresh] =
          node_of.try_emplace(p, static_cast<int>(ws.nodes.size()));
      if (fresh) {
        WalkSchedule::Node node{-1, p.back()};
        if (p.size() > 1) {
          node.parent = node_of.at(PathOps(p.begin(), p.end() - 1));
          ++ws.nodes[node.parent].uses;
        }
        ws.nodes.push_back(node);
      }
      ++ws.nodes[it->second].walks;
    }
    const WalkSchedule::Split s{static_cast<int>(best), node_of.at(h.plus),
                                node_of.at(h.minus), h.fused,
                                ws.nodes.size(), plans[best].merge};
    ++ws.nodes[s.plus].uses;
    ++ws.nodes[s.minus].uses;
    ws.splits.push_back(s);
  }
  return ws;
}

ProjTable solve_cycle(const ExecContext& cx, const Block& blk,
                      TablePool& pool, std::size_t* peak_entries) {
  FlatRows sink(cx.key_layout());
  SharedPath ops{cx, pool};
  const std::size_t peak = run_walks(
      ops, schedule_walks(blk, cx.opts.algo), cx.load,
      [&](const WalkSchedule::Split& s, ProjTable& plus, ProjTable& minus) {
        if (!s.fused) {
          merge_halves(cx, plus, minus, s.merge, sink);
          return sink.size();
        }
        // The pulling orientation (see SharedPath::extend_child).
        const PathOp& last = *s.fused;
        const ProjTable* child =
            last.child < 0 ? nullptr
                           : &pool.oriented(last.child, !last.transposed);
        (void)extend_and_merge(cx, minus, child, last.opts, plus, s.merge,
                               sink);
        return sink.size();
      });
  if (peak_entries != nullptr) *peak_entries = std::max(*peak_entries, peak);
  // The merge spec emitted exactly the boundary slots, so the summed keys
  // already project to the block's boundary images.
  ScopedStage timed(cx.stage_slot(&StageWall::seal));
  return ProjTable::from_sink(blk.boundary_count(), std::move(sink),
                              cx.g.num_vertices());
}

}  // namespace ccbt
