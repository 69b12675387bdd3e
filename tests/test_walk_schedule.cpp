// The walk schedule of a cycle block (engine/cycle_solver.hpp), run on
// Ops whose tables are the op lists that built them, for every catalog
// query under PS, PS-EVEN and DB. It must build each distinct op prefix
// of the splits' walks exactly once, hand every split the tables its
// standalone walks would build, release every table by the end of the
// block, and run in one deterministic order. The peak number of tables
// alive at once is reported per query and algorithm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/decomp/plan.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/query/catalog.hpp"

namespace ccbt {
namespace {

using List = PathOps;

struct Counter {
  int builds = 0;
  int live = 0;
  int peak = 0;
};

/// A recorded table that counts itself among the live ones until it is
/// destroyed (a moved-from table no longer counts).
class Tracked {
 public:
  Tracked(List ops, Counter* c) : ops_(std::move(ops)), c_(c) {
    ++c_->builds;
    c_->peak = std::max(c_->peak, ++c_->live);
  }
  Tracked(Tracked&& o) noexcept
      : ops_(std::move(o.ops_)), c_(std::exchange(o.c_, nullptr)) {}
  Tracked& operator=(Tracked&& o) noexcept {
    drop();
    ops_ = std::move(o.ops_);
    c_ = std::exchange(o.c_, nullptr);
    return *this;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { drop(); }

  const List& ops() const { return ops_; }

 private:
  void drop() {
    if (c_ != nullptr) --c_->live;
    c_ = nullptr;
  }

  List ops_;
  Counter* c_;
};

struct TrackedOps {
  using Kind = PathOp::Kind;
  Counter& c;

  Tracked then(const List& t, const PathOp& op) {
    List ops = t;
    ops.push_back(op);
    return {std::move(ops), &c};
  }
  Tracked init_graph(const ExtendOpts& o) {
    return then({}, {Kind::kInitGraph, -1, false, 0, o});
  }
  Tracked init_child(int child, bool transposed, const ExtendOpts& o) {
    return then({}, {Kind::kInitChild, child, transposed, 0, o});
  }
  Tracked node_join(Tracked& t, int child, int slot) {
    return then(t.ops(), {Kind::kNodeJoin, child, false, slot, {}});
  }
  Tracked extend_graph(Tracked& t, const ExtendOpts& o) {
    return then(t.ops(), {Kind::kExtendGraph, -1, false, 0, o});
  }
  Tracked extend_child(Tracked& t, int child, bool transposed,
                       const ExtendOpts& o) {
    return then(t.ops(), {Kind::kExtendChild, child, transposed, 0, o});
  }
};

/// What one cycle block's schedule did, against its standalone walks.
struct BlockRun {
  int walk_builds = 0;      // ops of every standalone walk (minus prefix)
  int distinct = 0;         // distinct op prefixes among them
  Counter counter;          // the schedule's builds and live tables
};

/// Run the schedule of `blk` and check it against the splits' standalone
/// walks.
BlockRun run_block(const Block& blk, Algo algo, const std::string& what) {
  BlockRun out;
  const std::vector<SplitPlan> plans = splits_for(blk, algo);
  std::vector<List> plus, minus;
  std::set<List> prefixes;
  for (const SplitPlan& plan : plans) {
    plus.push_back(walk_path(blk, plan.plus));
    minus.push_back(walk_path(blk, plan.minus));
    List prefix = minus.back();
    if (prefix.back().extends()) prefix.pop_back();
    for (const List* walk : {&plus.back(), &prefix}) {
      out.walk_builds += static_cast<int>(walk->size());
      for (std::size_t k = 1; k <= walk->size(); ++k) {
        prefixes.insert(List(walk->begin(), walk->begin() + k));
      }
    }
  }
  out.distinct = static_cast<int>(prefixes.size());

  const WalkSchedule ws = schedule_walks(blk, algo);
  EXPECT_EQ(ws.nodes.size(), prefixes.size()) << what;
  EXPECT_EQ(ws.splits.size(), plans.size()) << what;
  std::vector<int> seen(plans.size(), 0);
  TrackedOps ops{out.counter};
  run_walks(ops, ws, nullptr,
            [&](const WalkSchedule::Split& s, Tracked& p, Tracked& m) {
              ASSERT_GE(s.index, 0) << what;
              ASSERT_LT(s.index, static_cast<int>(plans.size())) << what;
              ++seen[s.index];
              const std::string split = what + " split " +
                                        std::to_string(s.index);
              EXPECT_EQ(p.ops(), plus[s.index]) << split;
              List full = m.ops();
              if (s.fused) {
                EXPECT_TRUE(s.fused->extends()) << split;
                full.push_back(*s.fused);
              }
              EXPECT_EQ(full, minus[s.index]) << split;
            });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << what << " split " << i;
  }
  EXPECT_EQ(out.counter.builds, out.distinct) << what;
  EXPECT_EQ(out.counter.live, 0) << what << ": tables left alive";
  return out;
}

bool same_schedule(const WalkSchedule& a, const WalkSchedule& b) {
  if (a.nodes.size() != b.nodes.size() || a.splits.size() != b.splits.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const WalkSchedule::Node& x = a.nodes[i];
    const WalkSchedule::Node& y = b.nodes[i];
    if (x.parent != y.parent || x.op != y.op || x.uses != y.uses ||
        x.walks != y.walks) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.splits.size(); ++i) {
    const WalkSchedule::Split& x = a.splits[i];
    const WalkSchedule::Split& y = b.splits[i];
    if (x.index != y.index || x.plus != y.plus || x.minus != y.minus ||
        x.fused != y.fused || x.built != y.built) {
      return false;
    }
  }
  return true;
}

TEST(WalkSchedule, BuildsEachDistinctPrefixOnceOverTheCatalog) {
  std::printf("%-13s %-8s %7s %9s %5s\n", "query", "algo", "walks",
              "distinct", "peak");
  for (const std::string& name : catalog_names()) {
    const DecompTree tree = make_plan(named_query(name)).tree;
    for (const Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
      int walks = 0, distinct = 0, peak = 0;
      for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
        const Block& blk = tree.blocks[i];
        if (blk.kind != BlockKind::kCycle) continue;
        const std::string what =
            name + " " + algo_name(algo) + " block " + std::to_string(i);
        const BlockRun run = run_block(blk, algo, what);
        EXPECT_LE(run.distinct, run.walk_builds) << what;
        walks += run.walk_builds;
        distinct += run.distinct;
        peak = std::max(peak, run.counter.peak);
        const WalkSchedule ws = schedule_walks(blk, algo);
        EXPECT_TRUE(same_schedule(ws, schedule_walks(blk, algo))) << what;
        // The nodes' walk counts are what the load model charges: every
        // standalone walk's ops, once each.
        int charged = 0;
        for (const WalkSchedule::Node& n : ws.nodes) {
          EXPECT_GE(n.walks, 1) << what;
          EXPECT_GE(n.uses, 1) << what;
          charged += n.walks;
        }
        EXPECT_EQ(charged, run.walk_builds) << what;
      }
      std::printf("%-13s %-8s %7d %9d %5d\n", name.c_str(), algo_name(algo),
                  walks, distinct, peak);
    }
  }
}

TEST(WalkSchedule, DrosUnderDbBuildsSevenTablesInsteadOfTwentyFive) {
  const DecompTree tree = make_plan(named_query("dros")).tree;
  int walks = 0, builds = 0, cycles = 0;
  for (const Block& blk : tree.blocks) {
    if (blk.kind != BlockKind::kCycle) continue;
    ++cycles;
    const BlockRun run = run_block(blk, Algo::kDB, "dros DB");
    walks += run.walk_builds;
    builds += run.counter.builds;
    // The greedy order: after split 0, split 4 needs no new table, split
    // 1 two, split 3 none, split 2 two (ties go to the lower index).
    std::vector<int> order;
    for (const auto& s : schedule_walks(blk, Algo::kDB).splits) {
      order.push_back(s.index);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 4, 1, 3, 2}));
  }
  EXPECT_EQ(cycles, 1);
  EXPECT_EQ(walks, 25);
  EXPECT_EQ(builds, 7);
}

}  // namespace
}  // namespace ccbt
