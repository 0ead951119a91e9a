// Serving-harness benchmark (src/serve/): cold vs. warm graph pool,
// request throughput, and latency percentiles under concurrent load.
//
// Four tables:
//   1. serve_cold_vs_warm — the same request batch served twice on one
//      Server: the cold round pays graph generation + CSR build per
//      distinct graph, the warm round runs entirely off the ref-counted
//      in-process pool (target: >= 2x round throughput);
//   2. serve_latency — p50/p99 request latency and sustained requests/sec
//      for a mixed algorithm stream over a warm pool;
//   3. serve_eviction — the same stream against a pool whose byte budget
//      forces continuous eviction, quantifying what the pool budget is
//      worth (hit rate and throughput vs. the unconstrained pool);
//   4. serve_telemetry_overhead — warm-pool throughput with the always-on
//      metrics (the baseline) and with metrics + request tracing, measured
//      as paired alternating rounds.
#include <memory>
#include <vector>

#include "gen/suite.hpp"
#include "graph/pool.hpp"
#include "harness/harness.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

using namespace eclp;

namespace {

/// Distinct suite inputs, so the cold round builds several graphs; same
/// structural spread the ingest bench uses.
const char* const kInputs[] = {"europe_osm", "r4-2e23.sym",
                               "kron_g500-logn21", "soc-LiveJournal1",
                               "2d-2e20.sym"};

serve::Request make_request(const std::string& id, serve::Algo algo,
                            const char* input, gen::Scale scale) {
  serve::Request r;
  r.id = id;
  r.algo = algo;
  r.input = input;
  r.scale = scale;
  return r;
}

double req_per_sec(usize requests, double ms) {
  return 1e3 * static_cast<double>(requests) / ms;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = harness::parse(
      argc, argv,
      "Serving harness: graph-pool reuse, throughput, latency percentiles");

  // --- 1: cold vs warm pool --------------------------------------------------
  {
    Table t("Serving: cold build round vs. warm pool round");
    t.set_header({"Requests", "cold ms", "cold req/s", "warm ms",
                  "warm req/s", "speedup", "hit rate"});

    // One request per distinct graph, cheapest algorithm: the cold round
    // is dominated by graph generation + CSR build, which is exactly the
    // cost the pool exists to amortize.
    serve::ServerOptions opt;
    serve::Server server(opt);
    std::vector<serve::Request> batch;
    for (usize i = 0; i < std::size(kInputs); ++i) {
      batch.push_back(make_request("cc-" + std::to_string(i), serve::Algo::kCc,
                                   kInputs[i], ctx.scale));
    }

    Timer cold_t;
    const auto cold = server.serve(batch);
    const double cold_ms = cold_t.milliseconds();
    for (const auto& r : cold) {
      ECLP_CHECK_MSG(r.status == serve::Status::kOk, r.id << ": " << r.error);
    }

    // Warm rounds hit the resident pool; median over --runs.
    std::vector<double> warm_ms_runs;
    for (int run = 0; run < ctx.runs; ++run) {
      Timer warm_t;
      const auto warm = server.serve(batch);
      warm_ms_runs.push_back(warm_t.milliseconds());
      for (usize i = 0; i < warm.size(); ++i) {
        ECLP_CHECK_MSG(warm[i].checksum == cold[i].checksum,
                       warm[i].id << ": warm result diverged from cold");
      }
    }
    const double warm_ms = stats::percentile(warm_ms_runs, 50);

    const auto stats = server.stats();
    const double hit_rate =
        100.0 * static_cast<double>(stats.graphs.hits) /
        static_cast<double>(stats.graphs.requests);
    t.add_row({std::to_string(batch.size()), fmt::fixed(cold_ms, 2),
               fmt::fixed(req_per_sec(batch.size(), cold_ms), 1),
               fmt::fixed(warm_ms, 2),
               fmt::fixed(req_per_sec(batch.size(), warm_ms), 1),
               fmt::fixed(cold_ms / warm_ms, 2),
               fmt::fixed(hit_rate, 1) + "%"});
    harness::emit(ctx, "serve_cold_vs_warm", t);
  }

  // --- 2: latency percentiles under mixed load -------------------------------
  {
    Table t("Serving: latency percentiles, mixed algorithms, warm pool");
    t.set_header({"Requests", "threads", "total ms", "req/s", "p50 ms",
                  "p99 ms", "hit rate"});
    const serve::Algo algos[] = {serve::Algo::kCc, serve::Algo::kGc,
                                 serve::Algo::kMis};
    for (const u32 threads : {1u, 4u}) {
      serve::ServerOptions opt;
      opt.threads = threads;
      serve::Server server(opt);
      std::vector<serve::Request> stream;
      for (usize i = 0; i < 8 * std::size(kInputs); ++i) {
        stream.push_back(make_request(
            "s" + std::to_string(i), algos[i % std::size(algos)],
            kInputs[i % std::size(kInputs)], ctx.scale));
      }
      server.serve(stream);  // warm-up round: populate the pool

      Timer total_t;
      const auto responses = server.serve(stream);
      const double total_ms = total_t.milliseconds();
      std::vector<double> latencies;
      for (const auto& r : responses) {
        ECLP_CHECK_MSG(r.status == serve::Status::kOk,
                       r.id << ": " << r.error);
        latencies.push_back(r.wall_ms);
      }
      const auto stats = server.stats();
      t.add_row({std::to_string(stream.size()), std::to_string(threads),
                 fmt::fixed(total_ms, 2),
                 fmt::fixed(req_per_sec(stream.size(), total_ms), 1),
                 fmt::fixed(stats::percentile(latencies, 50), 2),
                 fmt::fixed(stats::percentile(latencies, 99), 2),
                 fmt::fixed(100.0 * static_cast<double>(stats.graphs.hits) /
                                static_cast<double>(stats.graphs.requests),
                            1) + "%"});
    }
    harness::emit(ctx, "serve_latency", t);
  }

  // --- 3: eviction pressure --------------------------------------------------
  {
    Table t("Serving: unconstrained pool vs. eviction-forcing byte budget");
    t.set_header({"Pool budget", "req/s", "hit rate", "evictions"});
    for (const bool constrained : {false, true}) {
      serve::ServerOptions opt;
      opt.threads = 4;
      // The constrained pool holds roughly one graph of the working set.
      opt.graph_pool_bytes = constrained ? (u64{1} << 20) : (u64{512} << 20);
      serve::Server server(opt);
      std::vector<serve::Request> stream;
      for (usize i = 0; i < 6 * std::size(kInputs); ++i) {
        stream.push_back(make_request("e" + std::to_string(i),
                                      serve::Algo::kCc,
                                      kInputs[i % std::size(kInputs)],
                                      ctx.scale));
      }
      server.serve(stream);  // warm-up (a no-op for the constrained pool)
      Timer total_t;
      const auto responses = server.serve(stream);
      const double total_ms = total_t.milliseconds();
      for (const auto& r : responses) {
        ECLP_CHECK_MSG(r.status == serve::Status::kOk,
                       r.id << ": " << r.error);
      }
      const auto stats = server.stats();
      t.add_row({constrained ? "1 MiB" : "512 MiB",
                 fmt::fixed(req_per_sec(stream.size(), total_ms), 1),
                 fmt::fixed(100.0 * static_cast<double>(stats.graphs.hits) /
                                static_cast<double>(stats.graphs.requests),
                            1) + "%",
                 std::to_string(stats.graphs.evictions)});
    }
    harness::emit(ctx, "serve_eviction", t);
  }

  // --- 4: telemetry overhead -------------------------------------------------
  {
    Table t("Serving: telemetry overhead on a warm pool, mixed stream");
    t.set_header({"Telemetry", "Requests", "median ms", "req/s", "overhead"});

    // Metrics are always counted, so the per-trace event buffers are the
    // only optional work on the request path; the honest measurement is the
    // hot one: a warm pool (no graph builds to hide behind) and the same
    // mixed stream as the latency table.
    const serve::Algo algos[] = {serve::Algo::kCc, serve::Algo::kGc,
                                 serve::Algo::kMis};
    std::vector<serve::Request> stream;
    for (usize i = 0; i < 8 * std::size(kInputs); ++i) {
      stream.push_back(make_request(
          "t" + std::to_string(i), algos[i % std::size(algos)],
          kInputs[i % std::size(kInputs)], ctx.scale));
    }

    struct Config {
      const char* label;
      std::unique_ptr<serve::TraceLog> trace;
      std::unique_ptr<serve::Server> server;
      std::vector<double> round_ms;
    };
    Config configs[2];
    configs[0].label = "metrics";
    configs[1].label = "metrics+trace";
    for (usize i = 0; i < std::size(configs); ++i) {
      auto& c = configs[i];
      if (i >= 1) c.trace = std::make_unique<serve::TraceLog>();
      serve::ServerOptions opt;
      opt.threads = 4;
      opt.trace = c.trace.get();
      c.server = std::make_unique<serve::Server>(opt);
      c.server->serve(stream);  // warm-up: populate this server's pool
    }

    // Alternate one timed round per config within each repetition, so any
    // machine drift lands on both configurations equally; report the
    // per-config median over --runs.
    for (int run = 0; run < ctx.runs; ++run) {
      for (auto& c : configs) {
        Timer round_t;
        const auto responses = c.server->serve(stream);
        c.round_ms.push_back(round_t.milliseconds());
        for (const auto& r : responses) {
          ECLP_CHECK_MSG(r.status == serve::Status::kOk,
                         r.id << ": " << r.error);
        }
      }
    }

    const double base_ms = stats::percentile(configs[0].round_ms, 50);
    for (auto& c : configs) {
      const double ms = stats::percentile(c.round_ms, 50);
      const double overhead = 100.0 * (ms / base_ms - 1.0);
      t.add_row({c.label, std::to_string(stream.size()), fmt::fixed(ms, 2),
                 fmt::fixed(req_per_sec(stream.size(), ms), 1),
                 c.trace == nullptr ? "baseline"
                                    : fmt::signed_pct(overhead) + "%"});
    }
    harness::emit(ctx, "serve_telemetry_overhead", t);
  }

  return 0;
}
