// Combining the two profiling views: the paper's application-specific
// counters tell you WHAT a kernel did; the launch timeline tells you WHERE
// the modeled time went. This example runs ECL-MST with both attached.
//
//   $ ./kernel_timeline [--input=amazon0601] [--scale=small]
#include <cstdio>

#include "algos/mst/ecl_mst.hpp"
#include "gen/suite.hpp"
#include "graph/transforms.hpp"
#include "profile/timeline.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"

using namespace eclp;

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("input", "suite input name", "amazon0601");
  cli.add_option("scale", "tiny|small|default", "small");
  cli.add_option("csv", "write the raw per-launch timeline here", "");
  cli.add_option("sim-threads",
                 "host workers for block-parallel simulation "
                 "(0 = one per hardware thread)",
                 "");
  cli.parse(argc, argv);
  if (!cli.get("sim-threads").empty()) {
    sim::set_sim_threads(cli.get_u32("sim-threads"));
  }

  const auto g = graph::with_random_weights(
      gen::find_input(cli.get("input")).make(gen::parse_scale(cli.get("scale"))),
      42);

  sim::Device dev;
  profile::Session session(dev);

  algos::mst::Options opt;
  opt.record_iteration_metrics = true;
  const auto res = algos::mst::run(dev, g, opt);
  ECLP_CHECK_MSG(algos::mst::verify(g, res),
                 "MST verification failed");

  // View 1 — the timeline: which kernel dominates, and how many launches.
  const Table summary =
      profile::timeline_summary(session, "where the modeled cycles went");
  std::printf("%s\n", summary.to_text().c_str());

  // View 2 — the counters: what the dominant kernel was actually doing.
  std::printf("per-iteration behaviour of the dominant kernel (K1):\n");
  for (const auto& it : res.iterations) {
    std::printf("  %-10s %2u: %5.1f%% threads had work, %5.1f%% conflicted, "
                "%5.1f%% of atomics useless\n",
                it.kind.c_str(), it.index, it.pct_with_work(),
                it.pct_conflicting(), it.pct_useless_atomics());
  }
  std::printf("\nMST weight %llu over %zu edges in %zu launches.\n",
              static_cast<unsigned long long>(res.total_weight),
              res.mst_edges, static_cast<usize>(dev.kernel_launches()));

  if (!cli.get("csv").empty()) {
    std::FILE* f = std::fopen(cli.get("csv").c_str(), "w");
    ECLP_CHECK_MSG(f != nullptr, "cannot open " << cli.get("csv"));
    const auto csv = profile::timeline_csv(session);
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("raw timeline written to %s\n", cli.get("csv").c_str());
  }
  return 0;
}
