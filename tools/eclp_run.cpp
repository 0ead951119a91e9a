// eclp-run — run any of the five instrumented ECL algorithms on any graph,
// with verification, the paper's counters, and an optional kernel timeline.
//
//   $ eclp-run --algo=cc --graph=web.mtx
//   $ eclp-run --algo=scc --input=star --scale=small --timeline
//   $ eclp-run --algo=mst --graph=road.gr --verify
//
// Either --graph=<file> (any supported extension) or --input=<suite name>
// selects the graph. Undirected algorithms symmetrize directed files.
//
// --profile=<path> (or ECLP_PROFILE) records a profiling session: a
// versioned eclp.profile JSON at <path> (gate two runs against each other
// with eclp-profile-diff) plus a Perfetto-loadable <path minus
// .json>.trace.json. See docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "algos/cc/ecl_cc.hpp"
#include "graph/cache.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "profile/session.hpp"
#include "sim/trace.hpp"
#include "support/cli.hpp"
#include "support/parallel_for.hpp"
#include "support/rss.hpp"
#include "support/timer.hpp"

using namespace eclp;

namespace {

graph::Csr obtain_graph(const Cli& cli, const std::string& algo) {
  const bool want_directed = algo == "scc";
  graph::Csr g;
  if (!cli.get("graph").empty()) {
    g = graph::load_any(cli.get("graph"), want_directed);
  } else {
    ECLP_CHECK_MSG(!cli.get("input").empty(),
                   "pass --graph=<file> or --input=<suite name>");
    g = gen::find_input(cli.get("input"))
            .make(gen::parse_scale(cli.get("scale")));
  }
  if (!want_directed && g.directed()) {
    std::printf("note: symmetrizing directed input for an undirected "
                "algorithm\n");
    g = graph::symmetrize(g);
  }
  ECLP_CHECK_MSG(!want_directed || g.directed(),
                 "SCC needs a directed graph");
  // MST weights must be attached BEFORE any reordering: with_random_weights
  // hashes endpoint ids, so weighting first and permuting the weights with
  // the graph keeps results isomorphic across every --reorder choice.
  if (algo == "mst" && !g.weighted()) {
    g = graph::with_random_weights(g,
                                   static_cast<u64>(cli.get_int("weights")));
    std::printf("note: attached random weights (seed %lld)\n",
                static_cast<long long>(cli.get_int("weights")));
  }
  const auto spec = graph::ReorderSpec::parse(cli.get("reorder"));
  if (!spec.is_natural()) {
    g = graph::apply_reorder(g, spec);
    std::printf("note: reordered vertices (%s); locality %.4f, "
                "block affinity %.4f\n",
                spec.canonical().c_str(), graph::locality_score(g),
                graph::block_affinity(g, 256));
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("algo", "cc | gc | mis | mst | scc", "cc");
  cli.add_option("graph", "graph file (.eclg/.mtx/.gr/.col/.el)", "");
  cli.add_option("input", "suite input name (alternative to --graph)", "");
  cli.add_option("scale",
                 "tiny|small|default|huge (with --input; huge streams "
                 "through the chunked generator pipeline)",
                 "small");
  cli.add_option("seed", "device seed (shuffled schedule if nonzero)", "0");
  cli.add_option("weights", "random-weight seed for MST on unweighted input",
                 "42");
  cli.add_option("sim-threads",
                 "host worker threads for block-parallel simulation "
                 "(0 = one per hardware thread; overrides ECLP_SIM_THREADS)",
                 "");
  cli.add_option("build-threads",
                 "host threads for parallel graph ingest (0 = one per "
                 "hardware thread; overrides ECLP_BUILD_THREADS)",
                 "");
  cli.add_option("graph-cache",
                 "content-addressed .eclg cache directory — repeat runs "
                 "skip graph generation/parsing/build; overrides "
                 "ECLP_GRAPH_CACHE (see docs/INGEST.md)",
                 "");
  cli.add_option("profile",
                 "write a profiling session (eclp.profile JSON + Perfetto "
                 ".trace.json) to this path; overrides ECLP_PROFILE",
                 "");
  cli.add_option("reorder",
                 "vertex reordering applied to the input: natural, "
                 "random[:SEED], bfs, degree, hub, hubcluster, "
                 "gorder[:WINDOW]",
                 "natural");
  cli.add_option("llc",
                 "modeled last-level cache: off (default), on, or "
                 "LINE:WAYS:SETS (e.g. 64:8:64) — adds llc hit/miss "
                 "counters to profiles (docs/SIMULATOR.md)",
                 "off");
  cli.add_flag("verify", "check the result against the sequential reference");
  cli.add_flag("timeline", "print the kernel launch timeline");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::printf("%s", cli.usage("eclp-run").c_str());
    return 0;
  }

  const std::string algo = cli.get("algo");
  if (!cli.get("sim-threads").empty()) {
    sim::set_sim_threads(static_cast<u32>(cli.get_int("sim-threads")));
  }
  if (!cli.get("build-threads").empty()) {
    set_build_threads(static_cast<u32>(cli.get_int("build-threads")));
  }
  if (!cli.get("graph-cache").empty()) {
    graph::set_cache_dir(cli.get("graph-cache"));
  }
  const u64 seed = static_cast<u64>(cli.get_int("seed"));
  sim::CostModel cost;
  cost.cache = sim::parse_cache_config(cli.get("llc"));
  sim::Device dev(cost, seed,
                  seed == 0 ? sim::ScheduleMode::kDeterministic
                            : sim::ScheduleMode::kShuffled);
  sim::Trace trace;
  if (cli.get_flag("timeline")) dev.set_trace(&trace);

  std::string profile_path = cli.get("profile");
  if (profile_path.empty()) {
    const char* env = std::getenv("ECLP_PROFILE");
    if (env != nullptr) profile_path = env;
  }
  std::unique_ptr<profile::Session> session;
  if (!profile_path.empty()) {
    session = std::make_unique<profile::Session>(dev);
    session->set_meta("tool", "eclp-run");
    session->set_meta("algo", algo);
    session->set_meta("seed", cli.get("seed"));
    session->set_meta("graph", !cli.get("graph").empty()
                                   ? cli.get("graph")
                                   : cli.get("input"));
    const auto spec = graph::ReorderSpec::parse(cli.get("reorder"));
    if (!spec.is_natural()) session->set_meta("reorder", spec.canonical());
    if (cost.cache.enabled) {
      session->set_meta("llc", sim::cache_config_label(cost.cache));
    }
    session->set_output(profile_path);
  }

  Timer wall;
  if (algo == "cc") {
    const auto g = obtain_graph(cli, algo);
    const auto res = algos::cc::run(dev, g);
    std::printf("CC: %zu components, %llu modeled cycles, %.0f ms wall\n",
                [&] {
                  usize c = 0;
                  for (vidx v = 0; v < g.num_vertices(); ++v) {
                    c += (res.labels[v] == v);
                  }
                  return c;
                }(),
                static_cast<unsigned long long>(res.modeled_cycles),
                wall.milliseconds());
    std::printf("init traversals %llu over %llu vertices (ratio %.2f)\n",
                static_cast<unsigned long long>(
                    res.profile.init_neighbors_traversed),
                static_cast<unsigned long long>(
                    res.profile.vertices_initialized),
                static_cast<double>(res.profile.init_neighbors_traversed) /
                    static_cast<double>(res.profile.vertices_initialized));
    if (cli.get_flag("verify")) {
      ECLP_CHECK_MSG(algos::cc::verify(g, res.labels), "CC verify FAILED");
      std::printf("verified against BFS reference.\n");
    }
  } else if (algo == "gc") {
    const auto g = obtain_graph(cli, algo);
    const auto res = algos::gc::run(dev, g);
    std::printf("GC: %u colors in %llu rounds, %llu modeled cycles, "
                "%.0f ms wall\n",
                res.num_colors,
                static_cast<unsigned long long>(res.host_iterations),
                static_cast<unsigned long long>(res.modeled_cycles),
                wall.milliseconds());
    if (cli.get_flag("verify")) {
      ECLP_CHECK_MSG(algos::gc::verify(g, res.colors), "GC verify FAILED");
      std::printf("verified: proper coloring.\n");
    }
  } else if (algo == "mis") {
    const auto g = obtain_graph(cli, algo);
    const auto res = algos::mis::run(dev, g);
    std::printf("MIS: |S| = %zu, iterations avg %.2f max %.0f, %llu modeled "
                "cycles, %.0f ms wall\n",
                res.set_size, res.metrics.iterations.mean,
                res.metrics.iterations.max,
                static_cast<unsigned long long>(res.modeled_cycles),
                wall.milliseconds());
    if (cli.get_flag("verify")) {
      ECLP_CHECK_MSG(algos::mis::verify(g, res.status), "MIS verify FAILED");
      std::printf("verified: independent and maximal.\n");
    }
  } else if (algo == "mst") {
    const auto g = obtain_graph(cli, algo);
    algos::mst::Options opt;
    opt.record_iteration_metrics = true;
    const auto res = algos::mst::run(dev, g, opt);
    std::printf("MST: weight %llu over %zu edges, %zu iterations, %llu "
                "modeled cycles, %.0f ms wall\n",
                static_cast<unsigned long long>(res.total_weight),
                res.mst_edges, res.iterations.size(),
                static_cast<unsigned long long>(res.modeled_cycles),
                wall.milliseconds());
    if (cli.get_flag("verify")) {
      ECLP_CHECK_MSG(algos::mst::verify(g, res), "MST verify FAILED");
      std::printf("verified against Kruskal.\n");
    }
  } else if (algo == "scc") {
    const auto g = obtain_graph(cli, algo);
    const auto res = algos::scc::run(dev, g);
    std::printf("SCC: %zu components in m = %u rounds, %llu modeled cycles, "
                "%.0f ms wall\n",
                res.num_sccs, res.outer_iterations,
                static_cast<unsigned long long>(res.modeled_cycles),
                wall.milliseconds());
    if (cli.get_flag("verify")) {
      ECLP_CHECK_MSG(algos::scc::verify(g, res.scc_id), "SCC verify FAILED");
      std::printf("verified against Tarjan.\n");
    }
  } else {
    std::printf("unknown --algo=%s (cc | gc | mis | mst | scc)\n",
                algo.c_str());
    return 2;
  }

  if (cli.get_flag("timeline")) {
    std::printf("\n%s", trace.summary().to_text().c_str());
    std::printf("\n%s", trace.load_balance().to_text().c_str());
  }
  if (session != nullptr) {
    session.reset();  // finalize + write both artifacts
    std::printf("profile: %s (+ %s)\n", profile_path.c_str(),
                profile::Session::trace_path_for(profile_path).c_str());
  }
  std::printf("atomics: %llu total, CAS failure rate %.1f%%\n",
              static_cast<unsigned long long>(dev.atomic_stats().total()),
              100.0 * dev.atomic_stats().cas_failure_rate());
  // The bounded-memory smoke (tests/gen_smoke.cmake) asserts a ceiling on
  // this line; 0 means procfs is unavailable and the smoke skips.
  std::printf("peak rss: %llu MiB\n",
              static_cast<unsigned long long>(peak_rss_bytes() >> 20));
  if (cost.cache.enabled) {
    const u64 total = dev.llc_hits() + dev.llc_misses();
    std::printf("llc(%s): %llu hits, %llu misses (hit rate %.1f%%)\n",
                sim::cache_config_label(cost.cache).c_str(),
                static_cast<unsigned long long>(dev.llc_hits()),
                static_cast<unsigned long long>(dev.llc_misses()),
                total == 0 ? 100.0
                           : 100.0 * static_cast<double>(dev.llc_hits()) /
                                 static_cast<double>(total));
  }
  return 0;
}
