// eclp-run — run any of the five instrumented ECL algorithms on any graph,
// with verification, the paper's counters, and an optional kernel timeline.
//
//   $ eclp-run --algo=cc --graph=web.mtx
//   $ eclp-run --algo=scc --input=star --scale=small --timeline
//   $ eclp-run --algo=mst --graph=road.gr --verify
//
// Either --graph=<file> (any supported extension) or --input=<suite name>
// selects the graph. Undirected algorithms symmetrize directed files. The
// flags fill a serve::Request, and graph preparation and the run go through
// the same job runner as eclp-serve (serve/job.hpp), so both tools report
// the same result for the same request.
//
// --profile=<path> (or ECLP_PROFILE) records a profiling session: a
// versioned eclp.profile JSON at <path> (gate two runs against each other
// with eclp-profile-diff) plus a Perfetto-loadable <path minus
// .json>.trace.json. See docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "gen/suite.hpp"
#include "graph/cache.hpp"
#include "graph/reorder.hpp"
#include "profile/session.hpp"
#include "profile/timeline.hpp"
#include "serve/job.hpp"
#include "support/cli.hpp"
#include "support/parallel_for.hpp"
#include "support/rss.hpp"
#include "support/timer.hpp"

using namespace eclp;

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
    sim::set_sim_threads(cli.get_u32("sim-threads"));
  }
  if (!cli.get("build-threads").empty()) {
    set_build_threads(cli.get_u32("build-threads"));
  }
  if (!cli.get("graph-cache").empty()) {
    graph::set_cache_dir(cli.get("graph-cache"));
  }
  serve::Request req;
  req.id = "eclp-run";
  req.seed = static_cast<u64>(cli.get_int("seed"));
  try {
    req.algo = serve::parse_algo(algo);
  } catch (const CheckFailure&) {
    std::printf("unknown --algo=%s (cc | gc | mis | mst | scc)\n",
                algo.c_str());
    return 2;
  }
  req.file = cli.get("graph");
  if (req.file.empty()) {
    req.input = cli.get("input");
    ECLP_CHECK_MSG(!req.input.empty(),
                   "pass --graph=<file> or --input=<suite name>");
    req.scale = gen::parse_scale(cli.get("scale"));
  }
  req.weights_seed = static_cast<u64>(cli.get_int("weights"));
  req.reorder = cli.get("reorder");
  req.llc = cli.get("llc");
  req.verify = cli.get_flag("verify");
  sim::Device dev = serve::make_device(req);
  const sim::CacheConfig& llc = dev.cost_model().cache;

  std::string profile_path = cli.get("profile");
  if (profile_path.empty()) {
    const char* env = std::getenv("ECLP_PROFILE");
    if (env != nullptr) profile_path = env;
  }
  // One session records every launch for both --timeline and --profile.
  const bool timeline = cli.get_flag("timeline");
  std::unique_ptr<profile::Session> session;
  if (timeline || !profile_path.empty()) {
    session = std::make_unique<profile::Session>(dev);
    session->set_meta("tool", "eclp-run");
    session->set_meta("algo", algo);
    session->set_meta("seed", cli.get("seed"));
    session->set_meta("graph", req.graph_label());
    const auto spec = graph::ReorderSpec::parse(req.reorder);
    if (!spec.is_natural()) session->set_meta("reorder", spec.canonical());
    if (llc.enabled) session->set_meta("llc", sim::cache_config_label(llc));
    if (!profile_path.empty()) session->set_output(profile_path);
  }

  Timer wall;
  std::string notes;
  const graph::Csr g = serve::prepare_graph(req, &notes);
  std::fputs(notes.c_str(), stdout);
  const serve::JobOutcome out = serve::run_job(dev, g, req);
  std::printf("%s%s, %llu modeled cycles, %.0f ms wall\n%s",
              out.summary.c_str(), out.detail.c_str(),
              static_cast<unsigned long long>(out.modeled_cycles),
              wall.milliseconds(), out.after.c_str());
  ECLP_CHECK_MSG(out.verified, algo << " verify FAILED");

  if (timeline) {
    std::printf("\n%s", profile::timeline_summary(*session).to_text().c_str());
    std::printf("\n%s", profile::load_balance(*session).to_text().c_str());
  }
  if (!profile_path.empty()) {
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
  if (llc.enabled) {
    const u64 total = dev.llc_hits() + dev.llc_misses();
    std::printf("llc(%s): %llu hits, %llu misses (hit rate %.1f%%)\n",
                sim::cache_config_label(llc).c_str(),
                static_cast<unsigned long long>(dev.llc_hits()),
                static_cast<unsigned long long>(dev.llc_misses()),
                total == 0 ? 100.0
                           : 100.0 * static_cast<double>(dev.llc_hits()) /
                                 static_cast<double>(total));
  }
  return 0;
}
