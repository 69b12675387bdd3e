// Section 7 artifact: the distributed (virtual-MPI) engine vs the load
// model. For representative graph-query pairs this bench verifies that a
// physically sharded run reproduces the shared-memory engine's colorful
// count and modeled load exactly, and then reports what the model cannot
// see: actual transport volume (halo buckets, replicas, transposes and
// routed merge and aggregate outputs), off-rank fraction, and supersteps
// per plan.
//
// Shape to verify: off-rank traffic grows with the rank count, since a
// bucket goes to every rank that reads it; DB moves less data than PS on
// skewed graphs because its tables are smaller. The model charges one
// entry per cross-rank join emission while the halo ships each input
// bucket once per reading rank, so "sent / modeled" can fall below 1.

#include "common.hpp"

#include "ccbt/dist/dist_engine.hpp"

int main() {
  using namespace ccbt;
  using namespace ccbt::bench;
  print_header("Distributed engine — transport vs load model",
               "colorful parity, modeled vs actual traffic, supersteps");

  const std::vector<std::string> graphs{"enron", "condMat", "roadNetCA"};
  const std::vector<std::string> queries{"glet2", "wiki", "ecoli1"};
  const std::vector<std::uint32_t> rank_counts{4, 32};

  TextTable t({"graph", "query", "algo", "ranks", "parity", "steps",
               "sent", "off-rank%", "modeled comm", "sent / modeled"});

  for (const std::string& gname : graphs) {
    const CsrGraph g = make_workload(gname, bench_scale());
    for (const std::string& qname : queries) {
      const QueryGraph q = named_query(qname);
      const Plan plan = make_plan(q);
      const Coloring chi(g.num_vertices(), q.num_nodes(), 7);
      for (Algo algo : {Algo::kPS, Algo::kDB}) {
        for (std::uint32_t ranks : rank_counts) {
          ExecOptions opts;
          opts.algo = algo;
          opts.max_table_entries = bench_budget();

          ExecOptions shared_opts = opts;
          shared_opts.sim_ranks = ranks;
          CellResult shared;
          DistStats dist;
          try {
            CountingSession session(g, q, plan, shared_opts);
            const ExecStats s = session.count_colorful(chi);
            dist = run_plan_distributed(g, plan.tree, chi, ranks, opts);
            shared.ok = true;
            shared.colorful = s.colorful;
            shared.total_ops = s.total_ops;
          } catch (const BudgetExceeded&) {
            t.add_row({gname, qname, algo_name(algo),
                       std::to_string(ranks), "DNF", "-", "-", "-", "-",
                       "-"});
            continue;
          }

          const bool parity = dist.colorful == shared.colorful &&
                              dist.total_ops == shared.total_ops;
          const double off_pct =
              dist.transport.entries_sent == 0
                  ? 0.0
                  : 100.0 *
                        static_cast<double>(dist.transport.off_rank_entries) /
                        static_cast<double>(dist.transport.entries_sent);
          const double sent_per_modeled =
              dist.total_comm == 0
                  ? 0.0
                  : static_cast<double>(dist.transport.entries_sent) /
                        static_cast<double>(dist.total_comm);
          t.add_row({gname, qname, algo_name(algo), std::to_string(ranks),
                     parity ? "exact" : "MISMATCH",
                     std::to_string(dist.transport.supersteps),
                     std::to_string(dist.transport.entries_sent),
                     TextTable::num(off_pct, 1),
                     std::to_string(dist.total_comm),
                     TextTable::num(sent_per_modeled, 2)});
        }
      }
    }
  }
  t.print(std::cout);
  std::cout << "(parity: distributed colorful count and total ops equal the "
               "shared engine's;\n sent / modeled = actual entries moved / "
               "model-visible communication)\n";
  return 0;
}
