// Applying the paper's methodology to YOUR OWN kernel.
//
//   $ ./custom_profiling [--scale=small]
//
// The paper's point (§7): don't only rely on sophisticated profilers — add
// counters to your source. This example writes a level-synchronous BFS
// kernel against the simulated device and instruments it with the
// profiling framework exactly the way the five ECL ports are instrumented:
//
//   * a GlobalCounter for edges relaxed per level (algorithm-specific),
//   * a PerThreadCounter for per-thread work (the load-balance metric,
//     paper §3.1.1),
//   * GlobalCounters for idle vs. active threads (paper §3.1.3-3.1.4),
//   * the device's AtomicStats for the CAS failure rate (paper §3.1.5).
//
// Pass --profile=out.json (or set ECLP_PROFILE) to also record a profiling
// session: per-level spans plus every launch, exported as an eclp.profile
// document and a Perfetto trace (docs/OBSERVABILITY.md).
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "gen/suite.hpp"
#include "graph/properties.hpp"
#include "profile/registry.hpp"
#include "profile/session.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

using namespace eclp;

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("scale", "tiny|small|default", "small");
  cli.add_option("input", "suite input name", "USA-road-d.NY");
  cli.add_option("sim-threads",
                 "host workers for block-parallel simulation "
                 "(0 = one per hardware thread)",
                 "");
  cli.add_option("profile",
                 "write a profiling session (eclp.profile JSON + Perfetto "
                 ".trace.json) to this path; overrides ECLP_PROFILE",
                 "");
  cli.parse(argc, argv);
  if (!cli.get("sim-threads").empty()) {
    sim::set_sim_threads(cli.get_u32("sim-threads"));
  }
  const auto g =
      gen::find_input(cli.get("input")).make(gen::parse_scale(cli.get("scale")));
  const vidx n = g.num_vertices();

  sim::Device dev;
  profile::CounterRegistry reg;

  // Optional profiling session: spans cover the whole BFS and each level.
  std::string profile_path = cli.get("profile");
  if (profile_path.empty()) {
    const char* env = std::getenv("ECLP_PROFILE");
    if (env != nullptr) profile_path = env;
  }
  std::unique_ptr<profile::Session> session;
  if (!profile_path.empty()) {
    session = std::make_unique<profile::Session>(dev, &reg);
    session->set_meta("tool", "custom_profiling");
    session->set_meta("input", cli.get("input"));
    session->set_output(profile_path);
  }

  // --- the user's own BFS, manually instrumented -----------------------------
  constexpr u32 kUnvisited = ~u32{0};
  std::vector<u32> dist(n, kUnvisited);
  std::vector<vidx> frontier = {0};
  dist[0] = 0;

  auto& relaxed = reg.make<profile::GlobalCounter>("edges relaxed");
  auto& wins = reg.make<profile::GlobalCounter>("CAS wins");
  auto& idle = reg.make<profile::GlobalCounter>("idle threads");
  auto& active = reg.make<profile::GlobalCounter>("active threads");
  constexpr u32 kTpb = 256;
  auto& per_thread = reg.make<profile::PerThreadCounter>("edges per thread");

  profile::ScopedSpan bfs_span("custom-bfs", profile::SpanKind::kAlgorithm);
  u32 level = 0;
  while (!frontier.empty()) {
    ++level;
    profile::ScopedSpan level_span(profile::SpanKind::kIteration, "level",
                                   level);
    const u32 blocks =
        static_cast<u32>((frontier.size() + kTpb - 1) / kTpb);
    const sim::LaunchConfig cfg{blocks, kTpb};
    per_thread.resize(cfg.total_threads());
    std::vector<vidx> next;
    dev.launch("bfs_level", cfg, [&](sim::ThreadCtx& ctx) {
      const u32 tid = ctx.global_id();
      if (tid >= frontier.size()) {
        idle.inc();  // launched beyond the frontier: no work assigned
        return;
      }
      active.inc();
      const vidx u = frontier[tid];
      ctx.charge_coalesced_reads(1);
      for (const vidx v : g.neighbors(u)) {
        ctx.charge_reads(1);
        relaxed.inc();
        per_thread.inc(tid);
        // Claim the vertex with CAS, as a GPU BFS would.
        if (ctx.atomic_cas(dist[v], kUnvisited, level) == kUnvisited) {
          wins.inc();
          next.push_back(v);
        }
      }
    });
    // Per-level load balance: the spread of edges handled per thread.
    const auto s = per_thread.summary();
    std::printf("level %2u: frontier %6zu, relaxed/thread avg %6.1f max %4.0f"
                "  (imbalance %.1fx)\n",
                level, frontier.size(), s.mean, s.max,
                s.mean > 0 ? s.max / s.mean : 0.0);
    frontier = std::move(next);
  }
  bfs_span.end();
  if (session != nullptr) {
    session.reset();  // finalize + write both artifacts
    std::printf("profile: %s (+ %s)\n", profile_path.c_str(),
                profile::Session::trace_path_for(profile_path).c_str());
  }

  std::printf("\n%s\n", reg.report("BFS counters").to_text().c_str());
  const auto& at = dev.atomic_stats();
  std::printf("CAS failure rate: %.1f%% — every failure is a vertex two "
              "threads raced for.\n",
              100.0 * at.cas_failure_rate());

  // Sanity: instrumented BFS must agree with the reference.
  const auto ref = graph::bfs_distances(g, 0);
  for (vidx v = 0; v < n; ++v) {
    ECLP_CHECK_MSG(dist[v] == (ref[v] == graph::kUnreachable
                                   ? kUnvisited
                                   : (ref[v] == 0 ? 0u : ref[v])),
                   "BFS mismatch at " << v);
  }
  std::printf("BFS verified against the sequential reference.\n");
  return 0;
}
