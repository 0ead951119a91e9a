// eclp-serve — concurrent batch/serving driver: execute a JSONL request
// file over shared pooled graphs.
//
//   $ eclp-serve --requests=reqs.jsonl --threads=4 --out=results.jsonl
//   $ eclp-serve --requests=reqs.jsonl --repeat=3          # warm-pool rounds
//   $ eclp-serve --requests=reqs.jsonl --admission=reject --max-queue=8
//
// Each request line is (algorithm, graph spec, seed, options) — see
// docs/SERVING.md for the schema. Requests execute concurrently with
// per-request Device/Session isolation over a shared work-stealing pool;
// graphs are pinned in an in-process ref-counted pool (LRU under
// --pool-mb) promoted from the on-disk --graph-cache when one is set.
// Results are emitted in request order, so the default (modeled-only)
// output is byte-stable across thread counts — the serving counterpart of
// the repo's determinism goldens. --timing adds wall-clock latency and
// pool hit/miss per response.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "graph/cache.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/parallel_for.hpp"
#include "support/timer.hpp"

using namespace eclp;

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("requests", "JSONL request file (see docs/SERVING.md)", "");
  cli.add_option("out", "results JSONL destination (default: stdout)", "");
  cli.add_option("threads",
                 "serving worker threads (0 = one per hardware thread)", "0");
  cli.add_option("max-queue",
                 "admission bound on pending requests (queue-full rejects "
                 "under --admission=reject)",
                 "256");
  cli.add_option("pool-mb", "graph pool byte budget, in MiB", "512");
  cli.add_option("repeat",
                 "serve the request list this many times (later rounds hit "
                 "the warm pool)",
                 "1");
  cli.add_option("admission",
                 "wait (backpressure) | reject (typed queue-full responses)",
                 "wait");
  cli.add_option("profile-dir",
                 "write a per-request profiling session (eclp.profile JSON + "
                 "Perfetto trace) under this directory",
                 "");
  cli.add_option("stats-json", "write server/pool stats JSON to this path",
                 "");
  cli.add_option("metrics",
                 "append eclp.metrics snapshots (JSONL) to this path; a "
                 "Prometheus-style .prom twin is rewritten next to it "
                 "(see docs/OBSERVABILITY.md, Runtime telemetry)",
                 "");
  cli.add_option("metrics-interval-ms",
                 "periodic snapshot interval; 0 = a single final snapshot",
                 "0");
  cli.add_option("trace",
                 "write per-request lifecycle events (JSONL: admitted/"
                 "rejected/started/pool/finished) to this path",
                 "");
  cli.add_option("slow-ms",
                 "auto-attach a profiling session to requests slower than "
                 "this many milliseconds and write their span trees to "
                 "--slow-dir (negative = off; 0 profiles everything)",
                 "-1");
  cli.add_option("slow-dir",
                 "artifact directory for slow requests (defaults to "
                 "--profile-dir)",
                 "");
  cli.add_option("build-threads",
                 "host threads for parallel graph ingest (0 = one per "
                 "hardware thread; overrides ECLP_BUILD_THREADS)",
                 "");
  cli.add_option("graph-cache",
                 "content-addressed .eclg cache directory promoted into the "
                 "in-process pool; overrides ECLP_GRAPH_CACHE",
                 "");
  cli.add_flag("timing",
               "add wall_ms + pool hit/miss to each response (scheduling-"
               "dependent, so off by default to keep output deterministic)");
  cli.add_flag("verify",
               "check every result against its sequential reference");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::printf("%s", cli.usage("eclp-serve").c_str());
    return 0;
  }

  ECLP_CHECK_MSG(!cli.get("requests").empty(),
                 "pass --requests=<file.jsonl>");
  if (!cli.get("build-threads").empty()) {
    set_build_threads(cli.get_u32("build-threads"));
  }
  if (!cli.get("graph-cache").empty()) {
    graph::set_cache_dir(cli.get("graph-cache"));
  }

  std::ifstream is(cli.get("requests"));
  ECLP_CHECK_MSG(is.good(), "cannot open " << cli.get("requests"));
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::vector<serve::Request> requests;
  try {
    requests = serve::parse_requests_jsonl(buffer.str());
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "eclp-serve: %s: %.*s\n", cli.get("requests").c_str(),
                 static_cast<int>(e.message().size()), e.message().data());
    return 2;
  }
  ECLP_CHECK_MSG(!requests.empty(),
                 cli.get("requests") << " contains no requests");
  if (cli.get_flag("verify")) {
    for (serve::Request& r : requests) r.verify = true;
  }

  serve::ServerOptions options;
  options.threads = cli.get_u32("threads");
  options.max_queue = static_cast<usize>(cli.get_int("max-queue"));
  options.graph_pool_bytes = static_cast<u64>(cli.get_int("pool-mb")) << 20;
  options.profile_dir = cli.get("profile-dir");
  options.slow_ms = cli.get_double("slow-ms");
  options.slow_dir = cli.get("slow-dir");
  const std::string admission = cli.get("admission");
  ECLP_CHECK_MSG(admission == "wait" || admission == "reject",
                 "--admission must be wait or reject");

  metrics::Registry registry;
  std::unique_ptr<serve::Telemetry> telemetry;
  if (!cli.get("metrics").empty()) {
    options.metrics = &registry;
    serve::TelemetryOptions topt;
    topt.jsonl_path = cli.get("metrics");
    topt.interval_ms = static_cast<u64>(cli.get_int("metrics-interval-ms"));
    telemetry = std::make_unique<serve::Telemetry>(registry, topt);
    telemetry->start();
  }
  std::unique_ptr<serve::TraceLog> trace;
  if (!cli.get("trace").empty()) {
    trace = std::make_unique<serve::TraceLog>();
    options.trace = trace.get();
  }

  auto server = std::make_unique<serve::Server>(options);
  const i64 repeat = std::max<i64>(1, cli.get_int("repeat"));
  std::vector<serve::Response> responses;
  Timer wall;
  for (i64 round = 0; round < repeat; ++round) {
    if (admission == "wait") {
      auto batch = server->serve(requests);
      responses.insert(responses.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
    } else {
      std::vector<std::future<serve::Response>> futures;
      futures.reserve(requests.size());
      for (const serve::Request& r : requests) futures.push_back(
          server->submit(r));
      for (auto& f : futures) responses.push_back(f.get());
    }
  }
  const double total_ms = wall.milliseconds();
  const u32 serve_threads = server->threads();
  const serve::ServerStats stats = server->stats();
  // Wave metrics are complete once the last response resolves, so the final
  // telemetry snapshot sees every wave; the server's workers are stopped
  // here, before that snapshot.
  server.reset();

  const std::string jsonl =
      serve::responses_to_jsonl(responses, cli.get_flag("timing"));
  if (cli.get("out").empty()) {
    std::fputs(jsonl.c_str(), stdout);
  } else {
    std::ofstream os(cli.get("out"));
    ECLP_CHECK_MSG(os.good(), "cannot write " << cli.get("out"));
    os << jsonl;
  }

  const double hit_rate =
      stats.graphs.requests == 0
          ? 0.0
          : 100.0 * static_cast<double>(stats.graphs.hits) /
                static_cast<double>(stats.graphs.requests);
  std::printf(
      "served %zu responses in %.1f ms (%.1f req/s) on %u threads: "
      "%llu ok, %llu failed, %llu rejected\n",
      responses.size(), total_ms, 1e3 * static_cast<double>(responses.size()) / total_ms,
      serve_threads, static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected));
  std::printf(
      "graph pool: %llu hits / %llu misses (%.1f%% hit rate), "
      "%llu evictions, %.1f MiB resident (peak %.1f)\n",
      static_cast<unsigned long long>(stats.graphs.hits),
      static_cast<unsigned long long>(stats.graphs.misses), hit_rate,
      static_cast<unsigned long long>(stats.graphs.evictions),
      static_cast<double>(stats.graphs.bytes) / (1 << 20),
      static_cast<double>(stats.graphs.peak_bytes) / (1 << 20));

  if (!cli.get("stats-json").empty()) {
    std::ofstream os(cli.get("stats-json"));
    ECLP_CHECK_MSG(os.good(), "cannot write " << cli.get("stats-json"));
    os << serve::stats_to_json(stats).dump(2) << "\n";
  }
  if (telemetry != nullptr) telemetry->snapshot();  // final (or only) one
  if (trace != nullptr) {
    ECLP_CHECK_MSG(trace->write(cli.get("trace")),
                   "cannot write " << cli.get("trace"));
  }
  return stats.failed == 0 ? 0 : 1;
}
