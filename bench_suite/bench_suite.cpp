// Four-workload end-to-end benchmark of the counting engines, measured
// from outside the library: every number is a timing around a public call
// or a field of the stats structs the engines already return.
//
//   bench_suite --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-file PATH]
//
// One process runs one workload; bench_suite/run.py builds and drives it,
// checks the result and prints the metrics. The graph is fixed per
// workload; `--seed` draws the coloring stream, whose lane seeds come in
// trial order, the way estimate_matches draws them.
//
// Both modes first time the set-up (graph build, make_plan,
// CountingSession) kSetupRepeats times, then run one untimed warm-up
// execution. An execution builds B colorings and makes one engine call,
// at the thread count OMP_NUM_THREADS sets.
//   --trace 0  executions until `seconds` have passed, alternating with
//              runs of the machine-speed Probe.
//   --trace 1  rounds of (plain execution, traced replay) on one batch,
//              then plain executions at up to kParallelThreads threads.
//              The replay re-drives run_plan's block loop through the
//              public solvers with a span around every call (shared
//              engine only).
// The first and the last kCheckTrials timed trials are counted again along
// another path (the other batch width, or the shared engine for the
// distributed workload); a lane that disagrees, or whose execution threw,
// counts as failed.
//
// The last line of stdout is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ccbt/bench_support/workloads.hpp"
#include "ccbt/core/ccbt.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/leaf_solver.hpp"
#include "ccbt/util/timer.hpp"

namespace {

using namespace ccbt;

struct Workload {
  const char* name;
  bool distributed;  // virtual-MPI engine on kRanks ranks, else shared
  const char* graph;
  const char* query;
  int width;  // colorings per execution (B)
};

// Why each workload is here: bench_suite/README.md.
constexpr Workload kWorkloads[] = {
    {"fig15-b8", false, "condMat", "dros", 8},
    {"fig15-b1", false, "condMat", "dros", 1},
    {"road-b8", false, "roadNetCA", "brain1", 8},
    {"dist-skewed", true, "enron", "wiki", 8},
};

constexpr double kScale = 0.5;
constexpr std::uint32_t kRanks = 4;
constexpr int kSetupRepeats = 11;
constexpr int kCheckTrials = 8;  // one 8-lane batch per cross-check group
constexpr int kParallelThreads = 4;  // traced run's thread-scaling probe

using Metrics = std::vector<std::pair<std::string, double>>;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int num_procs() {
#ifdef _OPENMP
  return omp_get_num_procs();
#else
  return 1;
#endif
}

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

std::string object(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

std::string object(const Metrics& m) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const auto& [k, v] : m) kv.emplace_back(k, num(v));
  return object(kv);
}

// ------------------------------------------------------------------ set-up

struct Setup {
  std::unique_ptr<CsrGraph> g;
  QueryGraph q;
  Plan plan;
  ExecOptions opts;
  std::unique_ptr<CountingSession> session;
  std::unique_ptr<DegreeOrder> order;  // the replay's copy of the session's
  // Medians over kSetupRepeats; setup_s = build + plan + session.
  double setup_s = 0.0;
  double build_s = 0.0;
  double plan_s = 0.0;
  double session_s = 0.0;
  double order_s = 0.0;  // contained in session_s
};

/// The graph is the workload's fixed data set: the stand-in generator at
/// its default seed, whatever --seed says.
std::unique_ptr<Setup> make_setup(const Workload& w) {
  auto s = std::make_unique<Setup>();
  s->q = named_query(w.query);
  s->opts.algo = Algo::kDB;
  std::vector<double> total, build, plan, session, order;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Timer t;
    auto g = std::make_unique<CsrGraph>(make_workload(w.graph, kScale));
    const double t_build = t.seconds();
    Plan p = make_plan(s->q);
    const double t_plan = t.seconds();
    auto sess = std::make_unique<CountingSession>(*g, s->q, p, s->opts);
    const double t_session = t.seconds();
    Timer t_order;
    auto ord = std::make_unique<DegreeOrder>(*g);
    order.push_back(t_order.seconds());
    total.push_back(t_session);
    build.push_back(t_build);
    plan.push_back(t_plan - t_build);
    session.push_back(t_session - t_plan);
    s->session.reset();  // refers to the graph it is about to replace
    s->g = std::move(g);
    s->plan = std::move(p);
    s->session = std::move(sess);
    s->order = std::move(ord);
  }
  s->setup_s = median(total);
  s->build_s = median(build);
  s->plan_s = median(plan);
  s->session_s = median(session);
  s->order_s = median(order);
  return s;
}

/// The next `width` lane seeds of the trial stream: one Rng seeded with
/// --seed, drawn in trial order, as estimate_matches draws them.
std::vector<std::uint64_t> next_seeds(Rng& stream, int width) {
  std::vector<std::uint64_t> seeds(width);
  for (std::uint64_t& s : seeds) s = stream();
  return seeds;
}

std::vector<Coloring> make_colorings(const Setup& s,
                                     std::span<const std::uint64_t> seeds) {
  std::vector<Coloring> lanes;
  lanes.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    lanes.emplace_back(s.g->num_vertices(), s.q.num_nodes(), seed);
  }
  return lanes;
}

// -------------------------------------------------------------- executions

/// Counts and stage times an ExecStats or DistStats carries, per execution
/// (B trials); `tr` is the distributed engine's transport, empty otherwise.
template <typename Stats>
Metrics telemetry_metrics(const Stats& st, const CommStats& tr, int width) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const AccumTelemetry& a = st.accum;
  const LaneTelemetry& ln = st.lanes;
  const double folds = d(a.combine_folds + a.frontier_folds);
  const double trials = width;
  return {
      {"stage.accumulate_s", st.stage.accumulate},
      {"stage.seal_s", st.stage.seal},
      {"stage.merge_s", st.stage.merge},
      {"stage.transport_s", st.stage.transport},
      {"stage.residual_s", st.wall_seconds - st.stage.total()},
      {"table.phases", d(a.phases)},
      {"table.sharded_phases", d(a.sharded_phases)},
      {"table.sparse_phases", d(a.sparse_phases)},
      {"table.emit_rows", d(a.rows)},
      {"table.emit_bytes", d(a.emit_bytes)},
      {"table.bytes_per_row", a.bytes_per_row()},
      {"table.combine_folds", d(a.combine_folds)},
      {"table.frontier_folds", d(a.frontier_folds)},
      {"table.fold_ratio", ratio(folds, folds + d(a.rows))},
      {"table.shard_occupancy", a.shard_occupancy()},
      {"table.lane_density", ln.density()},
      {"table.packed_row_share", ratio(d(ln.rows_packed), d(ln.rows))},
      {"table.rows_u16", d(ln.width_rows[0])},
      {"table.rows_u32", d(ln.width_rows[1])},
      {"table.rows_u64", d(ln.width_rows[2])},
      {"dist.wire_bytes_per_trial", d(tr.off_rank_bytes()) / trials},
      {"dist.supersteps_per_trial", d(tr.supersteps) / trials},
      {"dist.entries_sent_per_trial", d(tr.entries_sent) / trials},
      {"dist.off_rank_share",
       ratio(d(tr.off_rank_entries), d(tr.entries_sent))},
      {"dist.max_step_recv", d(tr.max_step_recv)},
      {"dist.wire_lane_density", tr.wire_lane_density()},
      {"dist.retries", d(st.faults.retries)},
      {"load.makespan", st.sim_time},
      {"load.total_ops", d(st.total_ops)},
      {"load.max_rank_ops", d(st.max_rank_ops)},
      {"load.imbalance", ratio(d(st.max_rank_ops), st.avg_rank_ops)},
      {"load.total_comm", d(st.total_comm)},
  };
}

/// One execution's lane counts and what its stats struct carried.
struct Outcome {
  double wall = 0.0;  // coloring build + engine call
  double coloring_s = 0.0;
  double engine_s = 0.0;  // the engine's own wall_seconds
  double staged_s = 0.0;  // the engine's stage times, summed
  std::vector<Count> counts;
  Metrics telemetry;
};

template <typename Stats>
void take_stats(const Stats& st, const CommStats& tr, int width, Outcome& o) {
  o.engine_s = st.wall_seconds;
  o.staged_s = st.stage.total();
  o.counts.assign(st.colorful_lane.begin(), st.colorful_lane.begin() + width);
  o.telemetry = telemetry_metrics(st, tr, width);
}

Outcome execute(const Setup& s, const Workload& w,
                std::span<const std::uint64_t> seeds) {
  Outcome o;
  Timer t;
  const std::vector<Coloring> lanes = make_colorings(s, seeds);
  const ColoringBatch batch{std::span<const Coloring>(lanes)};
  o.coloring_s = t.seconds();
  if (w.distributed) {
    const DistStats st =
        run_plan_distributed(*s.g, s.plan.tree, batch, kRanks, s.opts);
    o.wall = t.seconds();
    take_stats(st, st.transport, w.width, o);
  } else {
    const ExecStats st = s.session->count_colorful(batch);
    o.wall = t.seconds();
    take_stats(st, CommStats{}, w.width, o);
  }
  return o;
}

/// Count kCheckTrials trials along a path that shares no batch width or
/// engine with the workload's own: one-lane runs for a B > 1 shared
/// workload, one 8-lane run for a B = 1 workload, and the shared engine
/// for the distributed one.
std::vector<Count> reference_counts(const Setup& s, const Workload& w,
                                    std::span<const std::uint64_t> seeds) {
  const std::vector<Coloring> lanes = make_colorings(s, seeds);
  std::vector<Count> out;
  if (!w.distributed && w.width > 1) {
    for (const Coloring& c : lanes) {
      out.push_back(s.session->count_colorful(c).colorful);
    }
    return out;
  }
  const ColoringBatch batch{std::span<const Coloring>(lanes)};
  const ExecStats st = s.session->count_colorful(batch);
  out.assign(st.colorful_lane.begin(),
             st.colorful_lane.begin() + lanes.size());
  return out;
}

/// Every timed trial in order; `ok` is false where the execution threw.
struct TrialLog {
  std::vector<std::uint64_t> seeds;
  std::vector<Count> counts;
  std::vector<bool> ok;
  std::uint64_t failed = 0;

  void add(std::span<const std::uint64_t> batch, const Outcome* o) {
    for (std::size_t l = 0; l < batch.size(); ++l) {
      seeds.push_back(batch[l]);
      counts.push_back(o != nullptr ? o->counts[l] : 0);
      ok.push_back(o != nullptr);
    }
    if (o == nullptr) failed += batch.size();
  }
};

/// Re-count the first and the last kCheckTrials trials with
/// reference_counts; adds every disagreeing lane to log.failed.
void cross_check(const Setup& s, const Workload& w, TrialLog& log) {
  const std::size_t n = log.seeds.size();
  if (n < static_cast<std::size_t>(kCheckTrials)) {
    throw std::runtime_error("cross_check: fewer trials than one group");
  }
  std::vector<std::size_t> starts{0};
  if (n - kCheckTrials > 0) starts.push_back(n - kCheckTrials);
  for (const std::size_t at : starts) {
    const std::span<const std::uint64_t> seeds(log.seeds.data() + at,
                                               kCheckTrials);
    const std::vector<Count> ref = reference_counts(s, w, seeds);
    for (int l = 0; l < kCheckTrials; ++l) {
      if (log.ok[at + l] && log.counts[at + l] != ref[l]) {
        std::fprintf(stderr, "trial %zu: counted %llu, reference %llu\n",
                     at + l,
                     static_cast<unsigned long long>(log.counts[at + l]),
                     static_cast<unsigned long long>(ref[l]));
        ++log.failed;
      }
    }
  }
}

/// Run one execution and log its trials; empty when it threw.
std::optional<Outcome> logged_execute(const Setup& s, const Workload& w,
                                      std::span<const std::uint64_t> seeds,
                                      TrialLog& log) {
  std::optional<Outcome> o;
  try {
    o = execute(s, w, seeds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "execution failed: %s\n", e.what());
  }
  log.add(seeds, o ? &*o : nullptr);
  return o;
}

/// Per-name medians over executions that all report the same names.
Metrics median_metrics(const std::vector<Metrics>& runs) {
  Metrics out;
  if (runs.empty()) return out;
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    std::vector<double> xs;
    for (const Metrics& m : runs) xs.push_back(m[i].second);
    out.emplace_back(runs[0][i].first, median(xs));
  }
  return out;
}

// ------------------------------------------------------------------ tracing

/// Spans kept in memory around the calls the replay makes into the
/// library, written out as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    const char* layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int exec = 0;
    std::uint64_t rows = 0;
  };

  void set_exec(int exec) { exec_ = exec; }

  int open(std::string name, const char* layer) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), layer, clock_.seconds(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), exec_, 0});
    stack_.push_back(id);
    return id;
  }

  void close(int id, std::uint64_t rows) {
    spans_[id].end = clock_.seconds();
    spans_[id].rows = rows;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its children cover (children of one
  /// span run one after another, so their durations add up).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& sp : spans_) {
      if (sp.parent >= 0) self[sp.parent] -= sp.end - sp.start;
    }
    return self;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = self_times();
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      std::fprintf(
          f,
          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": "
          "\"%s\", \"self_us\": %.3f, \"rows\": %llu}}%s\n",
          sp.name.c_str(), sp.layer, sp.exec, sp.start * 1e6,
          (sp.end - sp.start) * 1e6,
          sp.parent >= 0 ? spans_[sp.parent].name.c_str() : "",
          self[i] * 1e6, static_cast<unsigned long long>(sp.rows),
          i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Timer clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int exec_ = 0;
};

class SpanGuard {
 public:
  SpanGuard(Tracer& t, std::string name, const char* layer)
      : tracer_(t), id_(t.open(std::move(name), layer)) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { tracer_.close(id_, rows_); }

  void rows(std::uint64_t n) { rows_ = n; }

 private:
  Tracer& tracer_;
  int id_;
  std::uint64_t rows_ = 0;
};

/// run_plan's block loop (engine/executor.cpp), re-driven through the
/// public solvers so every solver call gets its own span.
template <int B>
std::vector<Count> replay_blocks(const Setup& s, const ColoringBatch& batch,
                                 Tracer& tr) {
  const DecompTree& tree = s.plan.tree;
  const CsrGraph& g = *s.g;
  StageWall stage;
  AccumTelemetry accum;
  LaneTelemetry lanes;
  ExecContext cx{g,
                 batch,
                 *s.order,
                 BlockPartition(g.num_vertices(), s.opts.sim_ranks),
                 nullptr,
                 s.opts};
  cx.lane_telemetry = &lanes;
  cx.stage = &stage;
  cx.accum = &accum;
  TablePoolT<B> pool(tree.blocks.size(), g.num_vertices(),
                     s.opts.lane_compress, &stage);

  typename LaneOps<B>::Vec totals = LaneOps<B>::zero();
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    const bool is_root = static_cast<int>(i) == tree.root;
    SpanGuard block_span(tr, "block" + std::to_string(i), "block");
    if (blk.kind == BlockKind::kSingleton) {
      if (blk.node_child[0] < 0) {
        throw std::runtime_error("replay: single-node query");
      }
      SpanGuard root(tr, "root", "root");
      totals = pool.get(blk.node_child[0]).lane_totals();
      break;
    }
    ProjTableT<B> table;
    if (blk.kind == BlockKind::kLeafEdge) {
      SpanGuard leaf(tr, "leaf", "leaf");
      table = solve_leaf_edge<B>(cx, blk, pool);
      leaf.rows(table.size());
    } else {
      AccumMapT<B> sink(16, s.opts.compact_accum);
      for (const SplitPlan& plan : splits_for(blk, s.opts.algo)) {
        ProjTableT<B> plus, minus;
        {
          SpanGuard path(tr, "path+", "path");
          plus = build_path<B>(cx, blk, pool, plan.plus);
          path.rows(plus.size());
        }
        {
          SpanGuard path(tr, "path-", "path");
          minus = build_path<B>(cx, blk, pool, plan.minus);
          path.rows(minus.size());
        }
        SpanGuard merge(tr, "merge", "merge");
        merge_halves<B>(cx, plus, minus, plan.merge, sink);
        merge.rows(sink.size());
      }
      SpanGuard from_map(tr, "from_map", "merge");
      table = ProjTableT<B>::from_map(blk.boundary_count(), std::move(sink));
      from_map.rows(table.size());
    }
    block_span.rows(table.size());
    if (is_root) {
      SpanGuard root(tr, "root", "root");
      totals = table.lane_totals();
      break;
    }
    SpanGuard store(tr, "store", "store");
    pool.store(static_cast<int>(i), std::move(table));
    cx.note_lanes(pool.get(static_cast<int>(i)).layout());
  }
  std::vector<Count> out(B);
  for (int l = 0; l < B; ++l) out[l] = LaneOps<B>::lane(totals, l);
  return out;
}

/// A traced execution: the shared engine replayed block by block, the
/// distributed engine as one span around its public entry point.
std::vector<Count> traced_execute(const Setup& s, const Workload& w,
                                  std::span<const std::uint64_t> seeds,
                                  Tracer& tr) {
  SpanGuard exec(tr, "execution", "execution");
  std::vector<Coloring> lanes;
  ColoringBatch batch;
  {
    SpanGuard coloring(tr, "coloring", "coloring");
    lanes = make_colorings(s, seeds);
    batch = ColoringBatch(std::span<const Coloring>(lanes));
  }
  if (w.distributed) {
    SpanGuard engine(tr, "run_plan_distributed", "dist");
    const DistStats st =
        run_plan_distributed(*s.g, s.plan.tree, batch, kRanks, s.opts);
    return {st.colorful_lane.begin(), st.colorful_lane.begin() + w.width};
  }
  switch (w.width) {
    case 1: return replay_blocks<1>(s, batch, tr);
    case 8: return replay_blocks<8>(s, batch, tr);
    default: break;
  }
  throw std::runtime_error("replay: batch width must be 1 or 8");
}

/// Per-layer numbers of one traced execution, from its spans.
struct ReplayProfile {
  double wall = 0.0;
  Metrics engine;  // engine.* self times and row counts
  Metrics block_s;     // per block: span duration
  Metrics block_rows;  // per block: rows of the block's table
};

ReplayProfile profile_exec(const Tracer& tr, int exec) {
  ReplayProfile p;
  const std::vector<double> self = tr.self_times();
  double leaf = 0, path = 0, merge = 0, store = 0, root = 0;
  double path_rows = 0, merge_rows = 0, peak = 0;
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& sp = spans[i];
    if (sp.exec != exec) continue;
    const std::string layer = sp.layer;
    const auto rows = static_cast<double>(sp.rows);
    if (layer == "execution") p.wall = sp.end - sp.start;
    if (layer == "leaf") leaf += self[i];
    if (layer == "path") {
      path += self[i];
      path_rows += rows;
    }
    if (layer == "merge") merge += self[i];
    if (sp.name == "from_map") merge_rows += rows;
    if (layer == "store") store += self[i];
    if (layer == "root") root += self[i];
    if (layer == "block") {
      peak = std::max(peak, rows);
      p.block_s.emplace_back(sp.name, sp.end - sp.start);
      p.block_rows.emplace_back(sp.name, rows);
    }
  }
  p.engine = {{"engine.leaf_s", leaf},         {"engine.path_s", path},
              {"engine.merge_s", merge},       {"engine.store_s", store},
              {"engine.root_s", root},         {"engine.path_rows", path_rows},
              {"engine.merge_rows", merge_rows}, {"engine.peak_entries", peak}};
  return p;
}

// ------------------------------------------------------ machine-speed probe

/// A fixed piece of work that shares no code with the library but mixes
/// the same two hot operations as the engine: sort 2^21 random keys, then
/// insert them into a 2^22-slot open-addressing table. It runs before and
/// after every timed execution; execution time over probe time cancels
/// most of the speed drift a shared host adds (over ten seeds on a 4-vCPU
/// VM, the spread of raw execution time was 8-17%, of the ratio 2-7%).
class Probe {
 public:
  /// Allocates and touches every buffer up front, so the probe's share of
  /// the resident set is a constant (resident_mb()).
  Probe()
      : keys_(kKeys), sorted_(kKeys), table_(2 * kKeys) {
    Rng rng(7);
    for (std::uint64_t& k : keys_) k = rng() | 1;  // 0 marks an empty slot
  }

  double seconds() {
    Timer t;
    sorted_ = keys_;
    std::sort(sorted_.begin(), sorted_.end());
    std::fill(table_.begin(), table_.end(), 0);
    const std::size_t mask = table_.size() - 1;
    for (const std::uint64_t k : keys_) {
      std::size_t h = ((k * 0x9E3779B97F4A7C15ULL) >> 20) & mask;
      while (table_[h] != 0 && table_[h] != k) h = (h + 1) & mask;
      table_[h] = k;
    }
    sink_ = sorted_[kKeys / 2] ^ table_[mask];
    return t.seconds();
  }

  static double resident_mb() {
    return static_cast<double>(4 * kKeys * sizeof(std::uint64_t)) /
           (1024.0 * 1024.0);
  }

 private:
  static constexpr std::size_t kKeys = std::size_t{1} << 21;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> sorted_;
  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the work observable
};

// ------------------------------------------------------------------- modes

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

struct Result {
  Metrics metrics;
  std::vector<std::pair<std::string, std::string>> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool consistent = true;  // trace checks beyond the lane counts
};

/// Executions until at least `seconds` have passed and enough trials for
/// the cross-check exist.
int min_executions(const Workload& w) {
  return std::max(3, (kCheckTrials + w.width - 1) / w.width);
}

std::string array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i > 0 ? ", " : "") + num(xs[i]);
  }
  return out + "]";
}

/// `probe` was built before the set-up, so the peak resident set of the
/// whole run less its constant share is the peak of the workload itself.
Result run_plain(const Setup& s, const Workload& w, const Args& a,
                 Rng& stream, const std::vector<std::uint64_t>& warm,
                 const Outcome& warm_out, Probe& probe) {
  TrialLog log;
  // Probe runs and executions alternate, starting and ending with a probe
  // run; each execution is divided by the mean of the two around it.
  std::vector<double> walls, probes{probe.seconds()}, ratios;
  Timer clock;
  for (int e = 0; e < min_executions(w) || clock.seconds() < a.seconds; ++e) {
    const std::vector<std::uint64_t> seeds =
        e == 0 ? warm : next_seeds(stream, w.width);
    const auto o = logged_execute(s, w, seeds, log);
    const double before = probes.back();
    probes.push_back(probe.seconds());
    if (!o) continue;
    walls.push_back(o->wall);
    ratios.push_back(o->wall / (0.5 * (before + probes.back())));
    if (e == 0 && o->counts != warm_out.counts) ++log.failed;
  }
  const double rss_mb = peak_rss_mb() - Probe::resident_mb();
  cross_check(s, w, log);

  Result r;
  r.attempted = log.seeds.size();
  r.failed = log.failed;
  double busy = 0.0;
  for (const double x : walls) busy += x;
  const double trials = static_cast<double>(walls.size()) * w.width;
  r.metrics = {{"exec_ref_p50", median(ratios)},
               {"setup_s", s.setup_s},
               {"peak_rss_mb", rss_mb},
               {"exec_s_p50", median(walls)},
               {"trials_per_s", ratio(trials, busy)},
               {"probe_s_p50", median(probes)}};
  r.detail = {{"executions", std::to_string(walls.size())},
              {"exec_s", array(walls)},
              {"probe_s", array(probes)}};
  return r;
}

Result run_traced(const Setup& s, const Workload& w, const Args& a,
                  Rng& stream, const std::vector<std::uint64_t>& warm,
                  const Outcome& warm_out) {
  Result r;
  TrialLog log;
  Tracer tr;
  std::vector<double> plain_walls, traced_walls, coloring;
  std::vector<Metrics> telemetry, engine, block_s, block_rows;
  Metrics first_telemetry;
  Timer clock;
  // Rounds of (plain, traced) on one batch.
  for (int round = 0; round < 2 || clock.seconds() < 0.6 * a.seconds;
       ++round) {
    const std::vector<std::uint64_t> seeds =
        round == 0 ? warm : next_seeds(stream, w.width);
    const auto o = logged_execute(s, w, seeds, log);
    if (!o) continue;
    plain_walls.push_back(o->wall);
    coloring.push_back(o->coloring_s);
    telemetry.push_back(o->telemetry);
    if (round == 0) first_telemetry = telemetry.back();
    if (o->staged_s > o->engine_s * 1.01) {
      std::fprintf(stderr, "staged time %.6f s exceeds engine wall %.6f s\n",
                   o->staged_s, o->engine_s);
      r.consistent = false;
    }
    tr.set_exec(round);
    std::vector<Count> replayed;
    try {
      replayed = traced_execute(s, w, seeds, tr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "traced execution failed: %s\n", e.what());
      r.consistent = false;
      continue;
    }
    if (replayed != o->counts) {
      std::fprintf(stderr, "round %d: replay root counts differ\n", round);
      r.consistent = false;
    }
    const ReplayProfile p = profile_exec(tr, round);
    traced_walls.push_back(p.wall);
    engine.push_back(p.engine);
    block_s.push_back(p.block_s);
    block_rows.push_back(p.block_rows);
  }
  // Then executions at up to kParallelThreads threads, the first on the
  // warm-up batch again so its counts compare across thread counts.
  const int base_threads = max_threads();
  const int parallel = std::min(kParallelThreads, num_procs());
  set_threads(parallel);
  std::vector<double> parallel_walls;
  Metrics parallel_telemetry;
  for (int e = 0; e < 2 || log.seeds.size() < kCheckTrials ||
                  clock.seconds() < a.seconds;
       ++e) {
    const std::vector<std::uint64_t> seeds =
        e == 0 ? warm : next_seeds(stream, w.width);
    const auto o = logged_execute(s, w, seeds, log);
    if (!o) continue;
    parallel_walls.push_back(o->wall);
    if (e > 0) continue;
    parallel_telemetry = o->telemetry;
    if (o->counts != warm_out.counts) ++log.failed;
  }
  set_threads(base_threads);
  cross_check(s, w, log);

  r.attempted = log.seeds.size();
  r.failed = log.failed;
  r.metrics = {{"graph.build_s", s.build_s},
               {"graph.degree_order_s", s.order_s},
               {"decomp.plan_s", s.plan_s},
               {"core.session_s", s.session_s},
               {"graph.coloring_s", median(coloring)}};
  const bool shared = !w.distributed;
  for (const auto& [k, v] : median_metrics(engine)) {
    r.metrics.emplace_back(k, shared ? v : 0.0);
  }
  const Metrics tele = median_metrics(telemetry);
  r.metrics.insert(r.metrics.end(), tele.begin(), tele.end());
  const double plain = median(plain_walls);
  const double par = median(parallel_walls);
  r.metrics.push_back({"omp.exec_s_mt", par});
  r.metrics.push_back({"omp.speedup", ratio(plain, par)});
  r.metrics.push_back({"trace.overhead", ratio(median(traced_walls), plain)});

  // Whether each count repeats: the warm-up, the first round and the first
  // parallel execution all ran the warm-up batch.
  const Metrics& warm_tele = warm_out.telemetry;
  const auto same = [&](const Metrics& m, std::size_t i) {
    return i < m.size() && m[i].second == warm_tele[i].second;
  };
  std::vector<std::pair<std::string, std::string>> exact;
  for (std::size_t i = 0; i < warm_tele.size(); ++i) {
    const std::string& k = warm_tele[i].first;
    if (k.rfind("stage.", 0) == 0) continue;  // times, not counts
    exact.emplace_back(k, !same(first_telemetry, i)      ? quote("varies")
                          : !same(parallel_telemetry, i) ? quote("threads")
                                                         : quote("exact"));
  }
  r.detail = {{"executions", std::to_string(plain_walls.size())},
              {"parallel_threads", std::to_string(parallel)},
              {"parallel_executions", std::to_string(parallel_walls.size())},
              {"exact_counts", object(exact)},
              {"block_s", object(median_metrics(block_s))},
              {"block_rows", object(median_metrics(block_rows))}};
  if (!a.trace_file.empty() && !tr.write(a.trace_file)) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_file.c_str());
    r.consistent = false;
  }
  return r;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
    } else if (flag == "--trace") {
      a.trace = val == "1";
    } else if (flag == "--trace-file") {
      a.trace_file = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse_args(argc, argv, a)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--trace-file PATH]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }

  try {
    std::optional<Probe> probe;
    if (!a.trace) probe.emplace();
    const std::unique_ptr<Setup> s = make_setup(*w);
    Rng stream(a.seed);
    const std::vector<std::uint64_t> warm = next_seeds(stream, w->width);
    const Outcome warm_out = execute(*s, *w, warm);
    const Result r = a.trace
                         ? run_traced(*s, *w, a, stream, warm, warm_out)
                         : run_plain(*s, *w, a, stream, warm, warm_out, *probe);
    const CsrGraph& g = *s->g;
    const std::string graph = object(
        {{"vertices", std::to_string(g.num_vertices())},
         {"edges", std::to_string(g.num_edges())},
         {"max_degree", std::to_string(g.max_degree())}});
    std::vector<std::pair<std::string, std::string>> out{
        {"workload", quote(w->name)},
        {"seed", std::to_string(a.seed)},
        {"trace", a.trace ? "1" : "0"},
        {"threads", std::to_string(max_threads())},
        {"compiler", quote(compiler())},
        {"graph", graph},
        {"width", std::to_string(w->width)},
        {"setup_repeats", std::to_string(kSetupRepeats)},
        {"correct", r.failed == 0 && r.consistent ? "true" : "false"},
        {"attempted", std::to_string(r.attempted)},
        {"failed", std::to_string(r.failed)},
        {"metrics", object(r.metrics)}};
    out.insert(out.end(), r.detail.begin(), r.detail.end());
    std::printf("%s\n", object(out).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
  return 0;
}
