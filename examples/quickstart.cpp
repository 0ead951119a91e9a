// Quickstart: run one instrumented graph algorithm on the simulated device
// and read the counters the paper's methodology is built on.
//
//   $ ./quickstart [--input=europe_osm] [--scale=small]
//
// Steps: pick a suite input (or any Csr you build yourself), create a
// sim::Device, run ECL-CC, verify the result, and inspect (a) the
// application-specific counters the kernel collected and (b) the
// device-wide atomic outcome statistics no standard profiler reports.
#include <cstdio>

#include "algos/cc/ecl_cc.hpp"
#include "gen/suite.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace eclp;

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("input", "suite input name (see gen/suite.hpp)",
                 "europe_osm");
  cli.add_option("scale", "tiny|small|default", "small");
  cli.add_option("sim-threads",
                 "host workers for block-parallel simulation "
                 "(0 = one per hardware thread)",
                 "");
  cli.parse(argc, argv);
  if (!cli.get("sim-threads").empty()) {
    sim::set_sim_threads(cli.get_u32("sim-threads"));
  }

  // 1. Get a graph. Any undirected graph::Csr works; the suite mirrors the
  //    paper's Table 1 inputs.
  const auto& spec = gen::find_input(cli.get("input"));
  const auto g = spec.make(gen::parse_scale(cli.get("scale")));
  std::printf("input %s: %u vertices, %u edges (d-avg %.2f, d-max %u)\n\n",
              spec.name.c_str(), g.num_vertices(), g.num_edges(),
              graph::degree_stats(g).avg, graph::degree_stats(g).max);

  // 2. Create the simulated device and run the instrumented algorithm.
  sim::Device dev;
  const auto res = algos::cc::run(dev, g);
  ECLP_CHECK_MSG(algos::cc::verify(g, res.labels), "CC verification failed");

  // 3. Application-specific counters (what Nsight cannot tell you).
  const auto& p = res.profile;
  Table t("ECL-CC application-specific counters");
  t.set_header({"counter", "value"});
  t.add_row({"vertices initialized", fmt::grouped(p.vertices_initialized)});
  t.add_row({"init neighbors traversed",
             fmt::grouped(p.init_neighbors_traversed)});
  t.add_row({"representative() calls", fmt::grouped(p.representative_calls)});
  t.add_row({"representative moved", fmt::grouped(p.representative_moved)});
  t.add_row({"hook attempts", fmt::grouped(p.hook_attempts)});
  t.add_row({"hook CAS successes", fmt::grouped(p.hook_cas_success)});
  t.add_row({"hook CAS failures", fmt::grouped(p.hook_cas_failure)});
  std::printf("%s\n", t.to_text().c_str());

  // 4. Device-wide atomic outcomes and the modeled cost.
  const auto& at = dev.atomic_stats();
  std::printf("atomicCAS failure rate: %.2f%%  (%llu of %llu)\n",
              100.0 * at.cas_failure_rate(),
              static_cast<unsigned long long>(
                  at.count(sim::AtomicOutcome::kCasFailure)),
              static_cast<unsigned long long>(at.cas_total()));
  std::printf("modeled cycles: %llu (init kernel: %llu, %.1f%%)\n",
              static_cast<unsigned long long>(res.modeled_cycles),
              static_cast<unsigned long long>(res.init_cycles),
              100.0 * static_cast<double>(res.init_cycles) /
                  static_cast<double>(res.modeled_cycles));
  std::printf("\ncomponents found: ");
  usize comps = 0;
  for (vidx v = 0; v < g.num_vertices(); ++v) comps += (res.labels[v] == v);
  std::printf("%zu\n", comps);
  return 0;
}
