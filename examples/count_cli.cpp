// count_cli — command-line motif counting, the tool a downstream user
// would actually run.
//
// Usage:
//   count_cli [--graph FILE | --gen MODEL] [--query NAME] [--algo ps|db]
//             [--trials N] [--ranks R] [--seed S] [--exact]
//
//   --graph FILE   edge-list file ("u v" per line, '#' comments); a
//                  .bin suffix loads/saves the binary CSR snapshot
//   --gen MODEL    synthetic graph instead of a file:
//                  chunglu:N:ALPHA:AVGDEG | rmat:SCALE:EF | er:N:M |
//                  or a Table 1 name (enron, epinions, ...)
//   --query NAME   catalog query (default cycle5); see --list
//   --algo         db (default) or ps
//   --trials N     estimator trials (default 5)
//   --batch B      colorings per plan execution (1 to 8; default 1):
//                  trials are processed B at a time, one after another,
//                  with identical per-trial counts
//   --ranks R      attach the virtual-rank load model and report loads
//   --exact        also run the brute-force counter (small graphs only!)
//   --dist R       run one coloring through the virtual-MPI engine on R
//                  ranks and report transport statistics
//   --tree         use the linear-time treelet DP (tree queries only)
//   --adaptive CV  adaptive trials until the estimate's cv <= CV
//   --save FILE    write the (possibly generated) graph and exit
//   --list         print all catalog query names and exit
//
// Fault tolerance (exercised by --dist and the estimator):
//   --fault-seed S       seed the deterministic FaultPlan (0 = default)
//   --fault-rate P       drop/duplicate/delay each transport message
//                        with probability P (per fate)
//   --trial-fail-rate P  drop estimator trials with probability P and
//                        degrade (survivor mean, widened cv)
//   --max-retries N      transport delivery retries per superstep
//   --deadline-ms D      virtual stall-detection deadline per superstep
//   --ckpt-interval N    checkpoint every N supersteps (0 = off)
//
// Runs with no arguments as a self-contained demo.

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ccbt/bench_support/workloads.hpp"
#include "ccbt/core/ccbt.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/stats.hpp"

namespace {

using namespace ccbt;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream is(s);
  std::string part;
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

CsrGraph make_graph(const std::string& spec, std::uint64_t seed) {
  const auto parts = split(spec, ':');
  if (parts[0] == "chunglu" && parts.size() == 4) {
    return chung_lu_power_law(static_cast<VertexId>(std::stoul(parts[1])),
                              std::stod(parts[2]), std::stod(parts[3]), seed);
  }
  if (parts[0] == "rmat" && parts.size() == 3) {
    RmatParams p;
    p.scale = std::stoi(parts[1]);
    p.edge_factor = std::stoi(parts[2]);
    return rmat(p, seed);
  }
  if (parts[0] == "er" && parts.size() == 3) {
    return erdos_renyi(static_cast<VertexId>(std::stoul(parts[1])),
                       std::stoul(parts[2]), seed);
  }
  return make_workload(parts[0], 0.2, seed);  // Table 1 stand-in names
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccbt;
  std::string graph_file, gen_spec = "chunglu:8000:1.8:6";
  std::string query_name = "cycle5", algo_name_str = "db";
  int trials = 5;
  int batch = 1;
  std::uint32_t ranks = 0;
  std::uint32_t dist_ranks = 0;
  std::uint64_t seed = 1;
  bool run_exact = false;
  bool use_tree_dp = false;
  double adaptive_cv = 0.0;
  std::string save_file;
  std::uint64_t fault_seed = 0;
  double fault_rate = 0.0;
  double trial_fail_rate = 0.0;
  std::uint32_t max_retries = 3;
  double deadline_ms = 100.0;
  std::uint64_t ckpt_interval = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return (i + 1 < argc) ? argv[++i] : std::string();
    };
    if (arg == "--graph") graph_file = next();
    else if (arg == "--gen") gen_spec = next();
    else if (arg == "--query") query_name = next();
    else if (arg == "--algo") algo_name_str = next();
    else if (arg == "--trials") trials = std::stoi(next());
    else if (arg == "--batch") batch = std::stoi(next());
    else if (arg == "--ranks") ranks = std::stoul(next());
    else if (arg == "--seed") seed = std::stoull(next());
    else if (arg == "--exact") run_exact = true;
    else if (arg == "--dist") dist_ranks = std::stoul(next());
    else if (arg == "--tree") use_tree_dp = true;
    else if (arg == "--adaptive") adaptive_cv = std::stod(next());
    else if (arg == "--fault-seed") fault_seed = std::stoull(next());
    else if (arg == "--fault-rate") fault_rate = std::stod(next());
    else if (arg == "--trial-fail-rate") trial_fail_rate = std::stod(next());
    else if (arg == "--max-retries") max_retries = std::stoul(next());
    else if (arg == "--deadline-ms") deadline_ms = std::stod(next());
    else if (arg == "--ckpt-interval") ckpt_interval = std::stoull(next());
    else if (arg == "--save") save_file = next();
    else if (arg == "--list") {
      for (const std::string& name : catalog_names()) std::cout << name
                                                                << "\n";
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  try {
    auto is_binary = [](const std::string& f) {
      return f.size() > 4 && f.compare(f.size() - 4, 4, ".bin") == 0;
    };
    const CsrGraph g =
        graph_file.empty()
            ? make_graph(gen_spec, seed)
            : (is_binary(graph_file) ? load_graph_binary(graph_file)
                                     : load_graph_text(graph_file));
    if (!save_file.empty()) {
      is_binary(save_file) ? save_graph_binary(g, save_file)
                           : save_graph_text(g, save_file);
      std::cout << "saved " << g.num_vertices() << " vertices / "
                << g.num_edges() << " edges to " << save_file << "\n";
      return 0;
    }
    const QueryGraph q = named_query(query_name);
    const GraphStats s = compute_stats(g);
    std::cout << "graph: " << s.num_vertices << " vertices, " << s.num_edges
              << " edges, max degree " << s.max_degree << ", skew "
              << s.skew << "\n"
              << "query: " << q.name() << " (" << q.num_nodes()
              << " nodes, " << q.num_edges() << " edges)\n";

    EstimatorOptions opts;
    opts.trials = trials;
    opts.seed = seed;
    opts.batch = batch;
    opts.exec.algo = (algo_name_str == "ps") ? Algo::kPS : Algo::kDB;
    opts.exec.sim_ranks = ranks;
    opts.faults.seed = fault_seed;
    opts.faults.trial_fail_rate = trial_fail_rate;
    opts.exec.dist.faults.seed = fault_seed;
    opts.exec.dist.faults.drop_rate = fault_rate;
    opts.exec.dist.faults.dup_rate = fault_rate;
    opts.exec.dist.faults.delay_rate = fault_rate;
    opts.exec.dist.max_retries = max_retries;
    opts.exec.dist.deadline_ms = deadline_ms;
    opts.exec.dist.checkpoint_interval = ckpt_interval;

    EstimatorResult r;
    std::string solver_label = algo_name(opts.exec.algo);
    int trials_run = trials;
    if (use_tree_dp) {
      // Linear-time treelet DP: average scaled colorful counts directly.
      solver_label = "tree DP";
      const double scale = colorful_scale(q.num_nodes());
      Rng seeder(seed);
      for (int t = 0; t < trials; ++t) {
        const Coloring chi(g.num_vertices(), q.num_nodes(), seeder());
        const TreeDpStats stats = count_colorful_tree_stats(g, q, chi);
        r.colorful_per_trial.push_back(stats.colorful);
        r.estimate_per_trial.push_back(
            scale * static_cast<double>(stats.colorful));
        r.total_wall_seconds += stats.wall_seconds;
      }
      const Summary summary = summarize(r.estimate_per_trial);
      r.matches = summary.mean;
      r.cv = summary.cv();
      r.automorphisms = count_automorphisms(q);
      r.occurrences = r.matches / static_cast<double>(r.automorphisms);
    } else if (adaptive_cv > 0.0) {
      AdaptiveOptions aopts;
      aopts.target_cv = adaptive_cv;
      aopts.max_trials = std::max(trials, 50);
      aopts.seed = seed;
      aopts.batch = batch;
      aopts.faults = opts.faults;
      aopts.exec = opts.exec;
      const AdaptiveResult ar = estimate_matches_adaptive(g, q, aopts);
      r = ar.estimate;
      trials_run = ar.trials_used;
      std::cout << (ar.converged ? "converged" : "did NOT converge")
                << " after " << ar.trials_used << " trial(s)\n";
    } else {
      r = estimate_matches(g, q, opts);
    }
    std::cout << "solver " << solver_label << ", " << trials_run
              << " trial(s), " << r.total_wall_seconds << " s\n"
              << "estimated matches:     " << r.matches << "\n"
              << "estimated occurrences: " << r.occurrences << "  (aut="
              << r.automorphisms << ")\n"
              << "cv: " << r.cv << "\n";
    if (r.degraded) {
      std::cout << "DEGRADED: " << r.trials_dropped << "/"
                << r.trials_planned << " trial(s) lost to faults, cv "
                << "widened to " << r.cv_widened << "\n";
    }

    if (dist_ranks > 0) {
      const Coloring chi(g.num_vertices(), q.num_nodes(), seed);
      const DistStats d = run_plan_distributed(g, make_plan(q).tree, chi,
                                               dist_ranks, opts.exec);
      std::cout << "distributed @" << dist_ranks << " ranks: colorful "
                << d.colorful << ", " << d.transport.supersteps
                << " supersteps, " << d.transport.entries_sent
                << " entries moved (" << d.transport.off_rank_bytes() / 1024
                << " KiB off-rank)\n";
      if (d.faults.faults_injected > 0 || d.faults.checkpoints_taken > 0) {
        std::cout << "faults: " << d.faults.faults_injected << " injected ("
                  << d.faults.drops << " drop/" << d.faults.dups << " dup/"
                  << d.faults.delays << " delay/" << d.faults.stalls
                  << " stall), " << d.faults.retries << " retries, "
                  << d.faults.replays << " replays, "
                  << d.faults.checkpoints_taken << " checkpoints ("
                  << d.faults.checkpoint_bytes / 1024 << " KiB), recovery "
                  << d.faults.recovery_virtual_ms() << " virtual ms"
                  << (d.recovered() ? "  [recovered]" : "") << "\n";
      }
    }

    if (ranks > 0) {
      ExecOptions lopts = opts.exec;
      CountingSession session(g, q, make_plan(q), lopts);
      const ExecStats stats = session.count_colorful_seeded(seed);
      std::cout << "load @" << ranks << " ranks: total ops "
                << stats.total_ops << ", max/avg rank load "
                << stats.max_rank_ops << "/" << stats.avg_rank_ops
                << ", sim makespan " << stats.sim_time << "\n";
    }
    if (run_exact) {
      std::cout << "exact matches:         " << count_matches_exact(g, q)
                << "\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
