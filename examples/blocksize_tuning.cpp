// The paper's §6.2.1 workflow as a reusable tool: profile ECL-SCC per-block
// behaviour on a mesh, then sweep the thread-block size and report modeled
// speedups over the 512-thread default.
//
//   $ ./blocksize_tuning [--input=star] [--scale=small]
#include <algorithm>
#include <cstdio>

#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace eclp;

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("input", "mesh input (toroid-wedge, star, toroid-hex, "
                          "cold-flow, klein-bottle)",
                 "star");
  cli.add_option("scale", "tiny|small|default", "small");
  cli.add_option("sim-threads",
                 "host workers for block-parallel simulation "
                 "(0 = one per hardware thread)",
                 "");
  cli.parse(argc, argv);
  if (!cli.get("sim-threads").empty()) {
    sim::set_sim_threads(cli.get_u32("sim-threads"));
  }
  const auto g =
      gen::find_input(cli.get("input")).make(gen::parse_scale(cli.get("scale")));

  // Step 1 — profile at the default block size: how localized are the
  // signature updates? (This is what motivated the tuning in the paper.)
  {
    sim::Device dev;
    algos::scc::Options opt;
    opt.record_series = true;
    const auto res = algos::scc::run(dev, g, opt);
    ECLP_CHECK(algos::scc::verify(g, res.scc_id));
    const auto* first = res.series.find(1, 1);
    const u64 last_n = res.series.max_inner(res.outer_iterations);
    const auto* last = res.series.find(res.outer_iterations, last_n);
    const auto actives = [](const profile::BlockSeries::Snapshot* s) {
      usize a = 0;
      if (s != nullptr) {
        for (const u64 v : s->per_block) a += (v > 0);
      }
      return a;
    };
    std::printf(
        "profile at 512 threads/block: %u outer rounds, first launch has "
        "%zu/%zu active blocks, final launch %zu — updates localize, so "
        "whole blocks idle through block-wide syncs.\n\n",
        res.outer_iterations, actives(first),
        first ? first->per_block.size() : 0, actives(last));
  }

  // Step 2 — sweep the block size.
  Table t("ECL-SCC block-size sweep on " + cli.get("input") +
          " (speedup over 512)");
  t.set_header({"threads/block", "modeled cycles", "speedup vs 512"});
  u64 base = 0;
  {
    sim::Device dev;
    algos::scc::Options opt;
    opt.threads_per_block = 512;
    base = algos::scc::run(dev, g, opt).modeled_cycles;
  }
  u32 best_tpb = 512;
  double best = 1.0;
  for (const u32 tpb : {64u, 128u, 256u, 512u, 1024u}) {
    sim::Device dev;
    algos::scc::Options opt;
    opt.threads_per_block = tpb;
    const auto res = algos::scc::run(dev, g, opt);
    ECLP_CHECK(algos::scc::verify(g, res.scc_id));
    const double speedup =
        static_cast<double>(base) / static_cast<double>(res.modeled_cycles);
    t.add_row({std::to_string(tpb), fmt::grouped(res.modeled_cycles),
               fmt::fixed(speedup, 2)});
    if (speedup > best) {
      best = speedup;
      best_tpb = tpb;
    }
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf("recommendation: %u threads/block (%.2fx over the default)\n",
              best_tpb, best);
  return 0;
}
