// The paper's §3.1 "general metrics" — load balance, idle vs. active
// threads, atomic outcomes — collected automatically for every kernel of
// every ECL code via the device's per-thread work accounting, plus the
// degree-binning ablation they motivate.
//
// Part 1: per-kernel load-balance/activity table for all five codes on one
// input each (the §3.1.1/3.1.3/3.1.4 metrics standard profilers lack).
// Part 2: ECL-CC with its three degree-binned compute kernels vs. a single
// thread-per-vertex kernel — the load-balancing design §2.1 describes.
#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "graph/transforms.hpp"
#include "harness/harness.hpp"
#include "profile/timeline.hpp"

using namespace eclp;

int main(int argc, char** argv) {
  const auto ctx = harness::parse(
      argc, argv, "General metrics (paper §3.1) across the five ECL codes");

  {
    sim::Device dev;
    // --profile=<path> (or ECLP_PROFILE) captures this five-algorithm sweep
    // as one profiling session: every run() annotates its phases. Without
    // it a local session still records the launches the tables read.
    auto session = harness::maybe_session(ctx, dev);
    if (session == nullptr) session = std::make_unique<profile::Session>(dev);
    const auto g = gen::find_input("as-skitter").make(ctx.scale);
    algos::cc::run(dev, g);
    algos::mis::run(dev, g);
    algos::gc::run(dev, g);
    algos::mst::run(dev, graph::with_random_weights(g, 42));
    const auto mesh = gen::find_input("cold-flow").make(ctx.scale);
    algos::scc::run(dev, mesh);
    harness::emit(ctx, "general_metrics_load_balance",
                  profile::load_balance(
                      *session,
                      "load balance & thread activity by kernel "
                      "(as-skitter / cold-flow)"));
    harness::emit(ctx, "general_metrics_timeline",
                  profile::timeline_summary(*session, "cycle share by kernel"));
    std::printf("atomicCAS failure rate across all runs: %.2f%%; "
                "atomicMin ineffective rate: %.2f%% (§3.1.5)\n\n",
                100.0 * dev.atomic_stats().cas_failure_rate(),
                100.0 * dev.atomic_stats().min_ineffective_rate());
  }

  {
    Table t("ECL-CC degree binning ablation (power-law inputs)");
    t.set_header({"Graph", "binned worst imbalance", "single worst imbalance",
                  "binned cycles", "single cycles", "binning speedup"});
    for (const char* name :
         {"as-skitter", "kron_g500-logn21", "soc-LiveJournal1", "in-2004"}) {
      const auto g = gen::find_input(name).make(ctx.scale);
      const auto measure = [&](const algos::cc::Options& opt) {
        sim::Device dev;
        profile::Session session(dev);
        const auto res = algos::cc::run(dev, g, opt);
        ECLP_CHECK(algos::cc::verify(g, res.labels));
        double worst = 1.0;
        for (const profile::Span& s : session.spans()) {
          if (s.kind == profile::SpanKind::kKernel &&
              s.name.rfind("cc_compute", 0) == 0) {
            worst = std::max(worst, s.imbalance);
          }
        }
        return std::pair{worst, res.modeled_cycles};
      };
      algos::cc::Options binned;  // defaults: low/mid/high kernels
      algos::cc::Options single;  // everything through the low kernel
      single.low_degree_limit = ~vidx{0};
      single.high_degree_limit = ~vidx{0};
      const auto [wb, cb] = measure(binned);
      const auto [ws, cs] = measure(single);
      t.add_row({name, fmt::fixed(wb, 1), fmt::fixed(ws, 1),
                 fmt::grouped(cb), fmt::grouped(cs),
                 fmt::fixed(static_cast<double>(cs) / static_cast<double>(cb),
                            2)});
    }
    harness::emit(ctx, "general_metrics_binning", t);
    std::printf(
        "degree binning (thread / warp / block per vertex, §2.1) caps the\n"
        "per-thread work spread that a single thread-per-vertex kernel\n"
        "suffers on power-law inputs. The cycle win tracks the degree\n"
        "skew: at this scale it shows on the most skewed inputs (kron,\n"
        "in-2004); on the originals, whose hubs are 20-200x larger\n"
        "(Table 1), the serialized hub thread dominates every input.\n");
  }
  return 0;
}
