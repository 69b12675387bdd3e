#pragma once
// Stand-in workloads for the paper's Table 1 data graphs.
//
// The paper evaluates on nine SNAP graphs plus a brain network. Those
// datasets are not redistributable here, so each is replaced by a
// synthetic graph whose degree model matches the original's documented
// skew (Chung-Lu over a truncated power law, or a 2D lattice for the
// road network), scaled to workstation size. The scale factor preserves
// the paper's *relative* difficulty ordering: epinions/slashdot/enron are
// the high-skew troublemakers, roadNetCA is the easy low-skew case.

#include <cstdint>
#include <string>
#include <vector>

#include "ccbt/bench_support/batch_replay.hpp"
#include "ccbt/graph/csr_graph.hpp"
#include "ccbt/query/query_graph.hpp"

namespace ccbt {

struct WorkloadSpec {
  std::string name;      // the paper's graph name
  std::string domain;    // Table 1 domain column
  std::string model;     // generator description
  VertexId paper_nodes;  // Table 1 numbers, for the report
  std::size_t paper_edges;
  std::uint32_t paper_max_degree;
};

/// The ten Table 1 graphs, paper order.
std::vector<WorkloadSpec> table1_specs();

/// Instantiate a stand-in graph. `scale` in (0, 1] shrinks the default
/// workstation size further (benches use it to bound runtimes).
CsrGraph make_workload(const std::string& name, double scale = 1.0,
                       std::uint64_t seed = 42);

/// The benchmark grid of the experimental section: all Table 1 graphs.
std::vector<std::string> workload_names();

}  // namespace ccbt
