#pragma once
// Cycle-block solving (Section 5): PS, PS-EVEN and DB strategies. Both
// engines run a block's splits (one for PS and PS-EVEN, L for DB, Eq. 1)
// through one walk schedule, which builds each distinct walk table once.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/split_plan.hpp"

namespace ccbt {

/// The walks of one cycle block's splits as a prefix tree of tables. A
/// walk's table depends only on its ops, so the nodes are the distinct op
/// prefixes of the walks; each is built once per coloring from its
/// parent's table and released after its last use.
struct WalkSchedule {
  /// One distinct op prefix: its table is built from its parent's.
  struct Node {
    int parent = -1;  // -1: the op is an init
    PathOp op;
    int uses = 0;   // child nodes plus split halves that read the table
    int walks = 0;  // split walks through the table: builds the paper runs
  };
  struct Split {
    int index = 0;   // position in splits_for(blk, algo)
    int plus = -1;   // node of the plus half
    int minus = -1;  // node of the minus half, or of its prefix if fused
    /// The minus half's last extend, fused into the merge (extend_and_merge);
    /// empty when the walk ends otherwise, and merge_halves joins.
    std::optional<PathOp> fused;
    std::size_t built = 0;  // nodes [0, built) exist when the split runs
    MergeSpec merge;
  };
  std::vector<Node> nodes;    // in build order
  std::vector<Split> splits;  // in run order
};

/// The walk schedule of `blk` under `algo`, from the block alone. Each
/// split's plus walk and minus prefix are op lists (walk_path); a minus
/// walk that ends in an extend leaves it to the merge. Splits run
/// greedily: next is the split that needs the fewest tables not yet
/// built, ties broken by split index. A split builds its missing plus
/// prefixes, then its missing minus prefixes.
WalkSchedule schedule_walks(const Block& blk, Algo algo);

/// Run a walk schedule on `ops` (SharedPath or dist::DistPath): build
/// each node once, call `finish(split, plus, minus)` per split in run
/// order (`minus` is the prefix of a fused split), release each table
/// after its last use. `finish` returns the rows the block's sink holds
/// after the split, summed; run_walks returns the most entries its live
/// tables and that sink hold at once. The Section 7 model charges every
/// walk as if it ran alone: `load` (nullable) repeats a node's build
/// phase once per further walk through it. Telemetry and the transport
/// see only real builds.
template <typename Ops, typename Finish>
std::size_t run_walks(Ops& ops, const WalkSchedule& ws, LoadModel* load,
                      Finish&& finish) {
  using Table = decltype(ops.init_graph(ExtendOpts{}));
  std::vector<std::optional<Table>> live(ws.nodes.size());
  std::vector<std::size_t> rows(ws.nodes.size(), 0);  // entries, per node
  std::vector<int> left;  // uses not made yet, per node
  for (const WalkSchedule::Node& n : ws.nodes) left.push_back(n.uses);
  std::size_t held = 0, sink = 0, peak = 0;
  const auto release = [&](int n) {
    if (--left[n] > 0) return;
    held -= rows[n];
    live[n].reset();
  };
  std::size_t next = 0;
  for (const WalkSchedule::Split& s : ws.splits) {
    for (; next < s.built; ++next) {
      const WalkSchedule::Node& node = ws.nodes[next];
      Table* in = node.parent < 0 ? nullptr : &*live[node.parent];
      live[next] = apply_op(ops, in, node.op);
      rows[next] = live[next]->size();
      held += rows[next];
      peak = std::max(peak, held + sink);
      if (node.parent >= 0) release(node.parent);
      if (load != nullptr) load->repeat_last_phase(node.walks - 1);
    }
    sink = finish(s, *live[s.plus], *live[s.minus]);
    peak = std::max(peak, held + sink);
    release(s.plus);
    release(s.minus);
  }
  return peak;
}

/// Compute the projection table of a (possibly annotated) cycle block.
/// Output arity equals the block's boundary count; keys are ordered
/// (nodes[boundary_pos[0]], nodes[boundary_pos[1]]). The splits run
/// through the block's walk schedule: a fused split ends in
/// extend_and_merge, any other merges its two tables (merge_halves).
/// Raises `*peak_entries`, when given, to the most entries the block's
/// walk tables and cycle sink hold at once (run_walks).
ProjTable solve_cycle(const ExecContext& cx, const Block& blk,
                      TablePool& pool, std::size_t* peak_entries = nullptr);

}  // namespace ccbt
