// Temporary smoke driver used during bring-up; superseded by the gtest
// suites but kept runnable for quick end-to-end sanity checks.
#include <cstdio>
#include <cstdlib>

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "graph/transforms.hpp"
#include "support/timer.hpp"

using namespace eclp;

int main() {
  auto scale = gen::Scale::kTiny;
  if (const char* env = std::getenv("ECLP_SCALE")) {
    scale = gen::parse_scale(env);
  }
  for (const auto& spec : gen::general_inputs()) {
    Timer t;
    const auto g = spec.make(scale);
    sim::Device dev;
    const auto cc = algos::cc::run(dev, g);
    const bool cc_ok = algos::cc::verify(g, cc.labels);
    const auto mis = algos::mis::run(dev, g);
    const bool mis_ok = algos::mis::verify(g, mis.status);
    const auto gc = algos::gc::run(dev, g);
    const bool gc_ok = algos::gc::verify(g, gc.colors);
    const auto gw = graph::with_random_weights(g, 42);
    const auto mst = algos::mst::run(dev, gw);
    const bool mst_ok = algos::mst::verify(gw, mst);
    std::printf(
        "%-18s n=%7u e=%8u | cc %s | mis %s (|S|=%zu it avg %.2f max %.0f) | "
        "gc %s (%u colors, %llu iters) | mst %s (w=%llu, %llu mst-iters) | "
        "%.2fs\n",
        spec.name.c_str(), g.num_vertices(), g.num_edges(),
        cc_ok ? "OK" : "FAIL", mis_ok ? "OK" : "FAIL", mis.set_size,
        mis.metrics.iterations.mean, mis.metrics.iterations.max,
        gc_ok ? "OK" : "FAIL", gc.num_colors,
        static_cast<unsigned long long>(gc.host_iterations),
        mst_ok ? "OK" : "FAIL",
        static_cast<unsigned long long>(mst.total_weight),
        static_cast<unsigned long long>(mst.host_iterations), t.seconds());
    fflush(stdout);
  }
  for (const auto& spec : gen::mesh_inputs()) {
    Timer t;
    const auto g = spec.make(scale);
    sim::Device dev;
    algos::scc::Options opt;
    opt.record_series = true;
    const auto scc = algos::scc::run(dev, g, opt);
    const bool ok = algos::scc::verify(g, scc.scc_id);
    u32 n1 = scc.inner_per_outer.empty() ? 0 : scc.inner_per_outer[0];
    std::printf(
        "%-18s n=%7u e=%8u | scc %s (%zu SCCs, m=%u, n1=%u) | %.2fs\n",
        spec.name.c_str(), g.num_vertices(), g.num_edges(),
        ok ? "OK" : "FAIL", scc.num_sccs, scc.outer_iterations, n1,
        t.seconds());
    fflush(stdout);
  }
  return 0;
}
