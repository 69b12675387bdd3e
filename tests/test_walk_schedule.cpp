// The walk schedule of a cycle block (engine/cycle_solver.hpp), run on
// Ops whose tables are the op lists that built them, for every catalog
// query under PS, PS-EVEN and DB. It must build each distinct op prefix
// of the splits' walks exactly once, hand every split the tables its
// standalone walks would build, release every table by the end of the
// block, and run in one deterministic order. The peak number of tables
// alive at once is reported per query and algorithm. run_walks' peak of
// live entries (tables plus sink) must match what the tables count
// themselves, and run_plan must report it on dros under DB.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/decomp/plan.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/executor.hpp"
#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"

namespace ccbt {
namespace {

using List = PathOps;

struct Counter {
  int builds = 0;
  int live = 0;
  int peak = 0;
  std::size_t entries = 0;       // of the live tables
  std::size_t sink = 0;          // the block's sink, as finish last said
  std::size_t peak_entries = 0;  // most live entries plus sink at once

  void note_entries() { peak_entries = std::max(peak_entries, entries + sink); }
};

/// A recorded table that counts itself, and its entries, among the live
/// ones until it is destroyed (a moved-from table no longer counts).
template <typename T>
class Tracked {
 public:
  Tracked(T value, Counter* c)
      : value_(std::move(value)), rows_(value_.size()), c_(c) {
    ++c_->builds;
    c_->peak = std::max(c_->peak, ++c_->live);
    c_->entries += rows_;
    c_->note_entries();
  }
  Tracked(Tracked&& o) noexcept
      : value_(std::move(o.value_)), rows_(o.rows_),
        c_(std::exchange(o.c_, nullptr)) {}
  Tracked& operator=(Tracked&& o) noexcept {
    drop();
    value_ = std::move(o.value_);
    rows_ = o.rows_;
    c_ = std::exchange(o.c_, nullptr);
    return *this;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { drop(); }

  T& value() { return value_; }
  const T& value() const { return value_; }
  std::size_t size() const { return rows_; }

 private:
  void drop() {
    if (c_ == nullptr) return;
    --c_->live;
    c_->entries -= rows_;
    c_ = nullptr;
  }

  T value_;
  std::size_t rows_;  // entries when built
  Counter* c_;
};

/// Tables that are the op lists which built them; a table's entries are
/// its ops.
struct TrackedOps {
  using Kind = PathOp::Kind;
  using Table = Tracked<List>;
  Counter& c;

  Table then(const List& t, const PathOp& op) {
    List ops = t;
    ops.push_back(op);
    return {std::move(ops), &c};
  }
  Table init_graph(const ExtendOpts& o) {
    return then({}, {Kind::kInitGraph, -1, false, 0, o});
  }
  Table init_child(int child, bool transposed, const ExtendOpts& o) {
    return then({}, {Kind::kInitChild, child, transposed, 0, o});
  }
  Table node_join(Table& t, int child, int slot) {
    return then(t.value(), {Kind::kNodeJoin, child, false, slot, {}});
  }
  Table extend_graph(Table& t, const ExtendOpts& o) {
    return then(t.value(), {Kind::kExtendGraph, -1, false, 0, o});
  }
  Table extend_child(Table& t, int child, bool transposed,
                     const ExtendOpts& o) {
    return then(t.value(), {Kind::kExtendChild, child, transposed, 0, o});
  }
};

/// The shared engine's path primitives, each table tracked with its
/// entries.
struct TrackedPath {
  using Table = Tracked<ProjTable>;
  SharedPath path;
  Counter& c;

  Table init_graph(const ExtendOpts& o) { return {path.init_graph(o), &c}; }
  Table init_child(int child, bool transposed, const ExtendOpts& o) {
    return {path.init_child(child, transposed, o), &c};
  }
  Table node_join(Table& t, int child, int slot) {
    return {path.node_join(t.value(), child, slot), &c};
  }
  Table extend_graph(Table& t, const ExtendOpts& o) {
    return {path.extend_graph(t.value(), o), &c};
  }
  Table extend_child(Table& t, int child, bool transposed,
                     const ExtendOpts& o) {
    return {path.extend_child(t.value(), child, transposed, o), &c};
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
  // The sink grows by one entry per split, so the peak counts it too.
  std::size_t sink = 0;
  const std::size_t peak = run_walks(
      ops, ws, nullptr,
      [&](const WalkSchedule::Split& s, TrackedOps::Table& p,
          TrackedOps::Table& m) {
        out.counter.sink = ++sink;
        out.counter.note_entries();
        if (s.index < 0 || s.index >= static_cast<int>(plans.size())) {
          ADD_FAILURE() << what << ": split index " << s.index;
          return sink;
        }
        ++seen[s.index];
        const std::string split = what + " split " +
                                  std::to_string(s.index);
        EXPECT_EQ(p.value(), plus[s.index]) << split;
        List full = m.value();
        if (s.fused) {
          EXPECT_TRUE(s.fused->extends()) << split;
          full.push_back(*s.fused);
        }
        EXPECT_EQ(full, minus[s.index]) << split;
        return sink;
      });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << what << " split " << i;
  }
  EXPECT_EQ(out.counter.builds, out.distinct) << what;
  EXPECT_EQ(out.counter.live, 0) << what << ": tables left alive";
  EXPECT_EQ(peak, out.counter.peak_entries) << what;
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

TEST(WalkSchedule, PeakEntriesCountDrosWalkTablesAndSink) {
  // run_plan's peak against the same blocks solved here, each cycle
  // block's walk tables and sink counted while they live.
  const CsrGraph g = chung_lu_power_law(400, 1.6, 6.0, 61);
  const QueryGraph q = named_query("dros");
  const Coloring chi(g.num_vertices(), q.num_nodes(), 62);
  const DegreeOrder order(g);
  ExecOptions opts;
  opts.algo = Algo::kDB;
  const ExecContext cx{g,
                       chi,
                       order,
                       BlockPartition(g.num_vertices(), 4),
                       nullptr,
                       opts};
  const DecompTree tree = make_plan(q).tree;
  const ExecStats stats = run_plan(cx, tree);

  TablePool pool(tree.blocks.size(), g.num_vertices());
  std::size_t want = 0, stored = 0;
  int most_live = 0;
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    if (blk.kind == BlockKind::kSingleton) continue;
    ProjTable table;
    if (blk.kind == BlockKind::kLeafEdge) {
      table = solve_leaf_edge(cx, blk, pool);
      want = std::max(want, table.size());
    } else {
      Counter c;
      TrackedPath ops{{cx, pool}, c};
      AccumMap sink(16, opts.compact_accum);
      run_walks(ops, schedule_walks(blk, opts.algo), nullptr,
                [&](const WalkSchedule::Split& s, TrackedPath::Table& plus,
                    TrackedPath::Table& minus) {
                  if (s.fused) {
                    const PathOp& last = *s.fused;
                    const ProjTable* child =
                        last.child < 0
                            ? nullptr
                            : &pool.oriented(last.child, !last.transposed);
                    (void)extend_and_merge(cx, minus.value(), child,
                                           last.opts, plus.value(), s.merge,
                                           sink);
                  } else {
                    merge_halves(cx, plus.value(), minus.value(), s.merge,
                                 sink);
                  }
                  c.sink = sink.size();
                  c.note_entries();
                  return sink.size();
                });
      EXPECT_EQ(c.live, 0);
      most_live = std::max(most_live, c.peak);
      want = std::max(want, c.peak_entries);
      table = ProjTable::from_map(blk.boundary_count(), std::move(sink));
    }
    stored = std::max(stored, table.size());
    if (static_cast<int>(i) != tree.root) {
      pool.store(static_cast<int>(i), std::move(table));
    }
  }
  std::printf("dros DB: %d tables alive at most, peak %zu entries, largest "
              "block table %zu\n",
              most_live, want, stored);
  EXPECT_EQ(most_live, 4);
  EXPECT_EQ(stats.peak_table_entries, want);
  // More than any one block table: the walk tables count too.
  EXPECT_GT(want, stored);
}

}  // namespace
}  // namespace ccbt
