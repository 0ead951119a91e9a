// Tests for the serving-layer telemetry (src/serve/telemetry.*) and its
// integration into the Server: the trace log's admission-order grouping,
// the eclp.metrics snapshot/Prometheus renderings, schema validation, the
// snapshot regression gate (diff_metrics), the slow-request
// auto-profiling hook, and the load-bearing determinism claim — under an
// injectable zero clock, the telemetry snapshot, the Prometheus
// exposition, and the full trace log are byte-identical across serving
// thread counts (pinned by tests/golden/telemetry_*).
//
// Lives in eclp_parallel_tests so `ctest -L tsan` race-checks the sharded
// instruments and the trace log under real serving concurrency.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "support/metrics.hpp"

namespace eclp {
namespace {

serve::Request make_request(const std::string& id, serve::Algo algo,
                            const std::string& input, u64 seed = 0) {
  serve::Request r;
  r.id = id;
  r.algo = algo;
  r.input = input;
  r.scale = gen::Scale::kTiny;
  r.seed = seed;
  return r;
}

// Same convention as serve_test.cpp / session_test.cpp: regenerate with
//   ECLP_UPDATE_GOLDEN=1 ./eclp_parallel_tests --gtest_filter='TelemetryGolden.*'
void expect_matches_golden(const std::string& name,
                           const std::string& actual) {
  const std::string path = std::string(ECLP_GOLDEN_DIR) + "/" + name;
  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << actual;
    GTEST_SKIP() << "updated golden " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (regenerate with ECLP_UPDATE_GOLDEN=1)";
  std::stringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "golden mismatch: " << path;
}

// --- TraceLog ----------------------------------------------------------------

TEST(TraceLog, FlushesCompleteTracesInAdmissionOrder) {
  serve::TraceLog log([] { return u64{0}; });
  const u64 t0 = log.open("first");
  const u64 t1 = log.open("second");
  log.emit(t1, "started");
  log.close(t1);
  // t0 admitted earlier and still open: nothing may flush yet.
  EXPECT_EQ(log.text(), "");
  log.emit(t0, "started");
  log.close(t0);
  const std::string text = log.text();
  const auto first_pos = text.find("\"id\":\"first\"");
  const auto second_pos = text.find("\"id\":\"second\"");
  ASSERT_NE(first_pos, std::string::npos);
  ASSERT_NE(second_pos, std::string::npos);
  EXPECT_LT(first_pos, second_pos);  // admission order, not close order
}

TEST(TraceLog, EventLinesCarryTraceIdAndFields) {
  serve::TraceLog log([] { return u64{0}; });
  const u64 t = log.open("req-1");
  json::Value fields = json::Value::object();
  fields.set("outcome", "hit");
  log.emit(t, "pool", std::move(fields));
  log.close(t);
  EXPECT_EQ(log.text(),
            "{\"trace\":\"00000000\",\"id\":\"req-1\",\"event\":\"pool\","
            "\"ts_us\":0,\"outcome\":\"hit\"}\n");
}

TEST(TraceLog, IdStringIsFixedWidthHex) {
  EXPECT_EQ(serve::TraceLog::id_string(0), "00000000");
  EXPECT_EQ(serve::TraceLog::id_string(0x3), "00000003");
  EXPECT_EQ(serve::TraceLog::id_string(0xabc), "00000abc");
}

// --- snapshot renderings -----------------------------------------------------

TEST(Telemetry, PromPathDerivation) {
  EXPECT_EQ(serve::Telemetry::prom_path_for("metrics.jsonl"), "metrics.prom");
  EXPECT_EQ(serve::Telemetry::prom_path_for("/tmp/a/b.jsonl"),
            "/tmp/a/b.prom");
  EXPECT_EQ(serve::Telemetry::prom_path_for("metrics.txt"),
            "metrics.txt.prom");
}

TEST(Telemetry, SnapshotJsonValidatesAndRoundTrips) {
  metrics::Registry r;
  r.counter("serve.completed").inc(3);
  r.gauge("serve.inflight").set(2);
  r.histogram("serve.latency_us.cc").observe(100);
  r.histogram("serve.latency_us.cc").observe(5000);
  const json::Value doc =
      serve::Telemetry::to_json(r.snapshot(), /*seq=*/7, /*ts_ns=*/123);
  serve::validate_metrics_snapshot(doc);  // must not throw
  EXPECT_EQ(doc.at("seq").as_u64(), 7u);
  EXPECT_EQ(doc.at("ts_ns").as_u64(), 123u);
  const json::Value back = json::Value::parse(doc.dump());
  EXPECT_EQ(back.at("counters").at("serve.completed").as_u64(), 3u);
  EXPECT_EQ(back.at("gauges").at("serve.inflight").as_u64(), 2u);
  const json::Value& h = back.at("histograms").at("serve.latency_us.cc");
  EXPECT_EQ(h.at("count").as_u64(), 2u);
  EXPECT_EQ(h.at("sum").as_u64(), 5100u);
  EXPECT_EQ(h.at("buckets").items().size(), 2u);  // only non-empty buckets
}

TEST(Telemetry, ValidateRejectsBucketCountMismatch) {
  metrics::Registry r;
  r.histogram("h").observe(4);
  json::Value doc = serve::Telemetry::to_json(r.snapshot(), 0, 0);
  // Corrupt the histogram count relative to its buckets.
  json::Value histograms = json::Value::object();
  json::Value h = json::Value::object();
  h.set("count", u64{2});
  h.set("sum", u64{4});
  h.set("p50", u64{4});
  h.set("p90", u64{4});
  h.set("p99", u64{4});
  h.set("buckets", doc.at("histograms").at("h").at("buckets"));
  histograms.set("h", std::move(h));
  doc.set("histograms", std::move(histograms));
  EXPECT_THROW(serve::validate_metrics_snapshot(doc), CheckFailure);
}

TEST(Telemetry, ValidateRejectsWrongSchema) {
  json::Value doc = json::Value::object();
  doc.set("schema", "something.else");
  doc.set("version", u64{1});
  EXPECT_THROW(serve::validate_metrics_snapshot(doc), CheckFailure);
}

// --- diff_metrics ------------------------------------------------------------

/// A minimal valid snapshot: the given counters, and one empty histogram
/// per p99 entry with every quantile set to that value.
json::Value snapshot_with(
    const std::vector<std::pair<std::string, u64>>& counters,
    const std::vector<std::pair<std::string, u64>>& p99s = {}) {
  json::Value doc = json::Value::object();
  doc.set("schema", "eclp.metrics");
  doc.set("version", u64{1});
  doc.set("seq", u64{0});
  doc.set("ts_ns", u64{0});
  json::Value c = json::Value::object();
  for (const auto& [name, value] : counters) c.set(name, value);
  doc.set("counters", std::move(c));
  doc.set("gauges", json::Value::object());
  json::Value hists = json::Value::object();
  for (const auto& [name, p99] : p99s) {
    json::Value h = json::Value::object();
    h.set("count", u64{0});
    h.set("sum", u64{0});
    for (const char* q : {"p50", "p90", "p99"}) h.set(q, p99);
    h.set("buckets", json::Value::array());
    hists.set(name, std::move(h));
  }
  doc.set("histograms", std::move(hists));
  return doc;
}

const profile::DiffEntry& entry(const profile::DiffReport& report,
                                const std::string& metric) {
  for (const profile::DiffEntry& e : report.entries) {
    if (e.metric == metric) return e;
  }
  ADD_FAILURE() << "no entry " << metric;
  static const profile::DiffEntry none;
  return none;
}

// eclp-metrics' defaults: --counter-tol=0, --latency-tol=10.
constexpr double kCounterTol = 0.0;
constexpr double kLatencyTol = 10.0;

TEST(MetricsDiff, FailedCounterGrowingFromZeroRegresses) {
  const auto report =
      serve::diff_metrics(snapshot_with({{"serve.failed", 0}}),
                          snapshot_with({{"serve.failed", 1}}), kCounterTol,
                          kLatencyTol);
  EXPECT_EQ(report.regressions(), 1u);
  EXPECT_EQ(entry(report, "counter/serve.failed").status,
            profile::DiffStatus::kRegressed);
  // A generous tolerance does not admit growth from zero either.
  EXPECT_EQ(serve::diff_metrics(snapshot_with({{"serve.failed", 0}}),
                                snapshot_with({{"serve.failed", 1}}), 1000.0,
                                kLatencyTol)
                .regressions(),
            1u);
}

TEST(MetricsDiff, MissingCounterCountsAsZero) {
  const auto report = serve::diff_metrics(
      snapshot_with({}),
      snapshot_with({{"serve.rejected", 2}, {"serve.completed", 50}}),
      kCounterTol, kLatencyTol);
  EXPECT_EQ(report.regressions(), 1u);
  const profile::DiffEntry& rejected = entry(report, "counter/serve.rejected");
  EXPECT_EQ(rejected.base, 0.0);
  EXPECT_EQ(rejected.cand, 2.0);
  EXPECT_EQ(rejected.status, profile::DiffStatus::kRegressed);
  // Absent on both sides is a clean 0 -> 0, and throughput-shaped counters
  // are not rows at all.
  EXPECT_EQ(entry(report, "counter/serve.failed").status,
            profile::DiffStatus::kOk);
  for (const profile::DiffEntry& e : report.entries) {
    EXPECT_EQ(e.metric.find("serve.completed"), std::string::npos);
  }
}

TEST(MetricsDiff, P99GatesAtTheLatencyTolerance) {
  const auto base = snapshot_with({}, {{"serve.latency_us.cc", 1000}});
  const auto within = serve::diff_metrics(
      base, snapshot_with({}, {{"serve.latency_us.cc", 1050}}), kCounterTol,
      kLatencyTol);
  EXPECT_EQ(within.regressions(), 0u);
  EXPECT_EQ(entry(within, "histogram/serve.latency_us.cc/p99").status,
            profile::DiffStatus::kOk);
  const auto beyond = serve::diff_metrics(
      base, snapshot_with({}, {{"serve.latency_us.cc", 1200}}), kCounterTol,
      kLatencyTol);
  EXPECT_EQ(beyond.regressions(), 1u);
  EXPECT_EQ(entry(beyond, "histogram/serve.latency_us.cc/p99").status,
            profile::DiffStatus::kRegressed);
}

TEST(MetricsDiff, OneSidedHistogramIsAddedOrRemovedNeverGated) {
  const auto base = snapshot_with({}, {{"serve.latency_us.cc", 1000}});
  const auto cand = snapshot_with({}, {{"serve.latency_us.scc", 900000}});
  const auto report =
      serve::diff_metrics(base, cand, kCounterTol, kLatencyTol);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_EQ(entry(report, "histogram/serve.latency_us.cc/p99").status,
            profile::DiffStatus::kRemoved);
  EXPECT_EQ(entry(report, "histogram/serve.latency_us.scc/p99").status,
            profile::DiffStatus::kAdded);
}

TEST(Telemetry, PrometheusRenderingIsCumulative) {
  metrics::Registry r;
  r.counter("pool.hits").inc(5);
  r.gauge("pool.bytes").set(1024);
  r.histogram("serve.wave_us").observe(1);
  r.histogram("serve.wave_us").observe(1);
  r.histogram("serve.wave_us").observe(100);
  const std::string prom = serve::Telemetry::to_prometheus(r.snapshot());
  EXPECT_NE(prom.find("# TYPE eclp_pool_hits_total counter\n"
                      "eclp_pool_hits_total 5\n"),
            std::string::npos);
  EXPECT_NE(prom.find("eclp_pool_bytes 1024\n"), std::string::npos);
  // Cumulative buckets: the [64,128) bucket's upper bound covers all 3.
  EXPECT_NE(prom.find("eclp_serve_wave_us_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("eclp_serve_wave_us_bucket{le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("eclp_serve_wave_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("eclp_serve_wave_us_sum 102\n"), std::string::npos);
  EXPECT_NE(prom.find("eclp_serve_wave_us_count 3\n"), std::string::npos);
}

TEST(Telemetry, SnapshotAppendsJsonlAndRewritesProm) {
  const auto dir =
      std::filesystem::temp_directory_path() / "eclp_telemetry_files";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string jsonl = (dir / "m.jsonl").string();
  metrics::Registry r;
  metrics::Counter& c = r.counter("c");
  serve::TelemetryOptions opt;
  opt.jsonl_path = jsonl;
  opt.clock_ns = [] { return u64{0}; };
  serve::Telemetry telemetry(r, opt);
  c.inc();
  telemetry.snapshot();
  c.inc();
  telemetry.snapshot();
  std::ifstream is(jsonl);
  ASSERT_TRUE(is.good());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  json::Value first = json::Value::parse(line);
  EXPECT_EQ(first.at("seq").as_u64(), 0u);
  EXPECT_EQ(first.at("counters").at("c").as_u64(), 1u);
  ASSERT_TRUE(std::getline(is, line));
  json::Value second = json::Value::parse(line);
  EXPECT_EQ(second.at("seq").as_u64(), 1u);
  EXPECT_EQ(second.at("counters").at("c").as_u64(), 2u);
  // The prom file is rewritten in place: only the latest value survives.
  std::ifstream prom(serve::Telemetry::prom_path_for(jsonl));
  ASSERT_TRUE(prom.good());
  std::stringstream buf;
  buf << prom.rdbuf();
  EXPECT_NE(buf.str().find("eclp_c_total 2\n"), std::string::npos);
  EXPECT_EQ(buf.str().find("eclp_c_total 1\n"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// --- end-to-end determinism golden -------------------------------------------

/// The telemetry golden mix: eight requests over eight *distinct* pool
/// keys (so hit/miss attribution cannot depend on scheduling), every
/// algorithm, a reorder variant, an LLC variant, and one guaranteed
/// failure. Phase one serves all eight concurrently from a pre-filled
/// queue (manual_start: one wave, queue peak 8, all misses); phase two
/// re-serves the same mix one request at a time (eight single-request
/// waves, warm hits — and the failing request missing again).
std::vector<serve::Request> telemetry_mix() {
  std::vector<serve::Request> reqs;
  reqs.push_back(make_request("cc-rmat", serve::Algo::kCc, "rmat16.sym"));
  reqs.push_back(make_request("gc-inet", serve::Algo::kGc, "internet"));
  reqs.push_back(make_request("mis-road", serve::Algo::kMis, "USA-road-d.NY"));
  reqs.push_back(make_request("mst-road", serve::Algo::kMst, "USA-road-d.NY"));
  reqs.push_back(make_request("scc-cold", serve::Algo::kScc, "cold-flow"));
  serve::Request hub = make_request("cc-rmat-hub", serve::Algo::kCc,
                                    "rmat16.sym");
  hub.reorder = "hub";
  reqs.push_back(hub);
  serve::Request llc = make_request("mis-inet-llc", serve::Algo::kMis,
                                    "internet", 12345);
  llc.llc = "on";
  reqs.push_back(llc);
  // SCC needs a directed graph; rmat16.sym is undirected -> typed error.
  reqs.push_back(make_request("scc-undirected", serve::Algo::kScc,
                              "rmat16.sym"));
  return reqs;
}

struct TelemetryRun {
  std::string snapshot_json;
  std::string prom;
  std::string trace;
};

TelemetryRun run_telemetry_mix(u32 threads) {
  metrics::Registry registry;
  serve::TraceLog trace([] { return u64{0}; });
  serve::ServerOptions opt;
  opt.threads = threads;
  opt.manual_start = true;  // fill the queue first: one deterministic wave
  opt.metrics = &registry;
  opt.trace = &trace;
  opt.clock_ns = [] { return u64{0}; };  // zero clock: byte-stable exports
  {
    serve::Server server(opt);
    std::vector<std::future<serve::Response>> futures;
    for (const serve::Request& r : telemetry_mix()) {
      futures.push_back(server.submit(r));
    }
    server.start();
    for (auto& f : futures) f.get();
    // Warm phase, strictly sequential: each request is admitted only after
    // the previous response resolved, so it runs in its own wave and its
    // pool outcome is resident-vs-absent, never a single-flight race.
    for (const serve::Request& r : telemetry_mix()) {
      server.enqueue(r).get();
    }
  }
  const metrics::Snapshot snap = registry.snapshot();
  TelemetryRun run;
  const json::Value doc = serve::Telemetry::to_json(snap, 0, 0);
  serve::validate_metrics_snapshot(doc);
  run.snapshot_json = doc.dump(2) + "\n";
  run.prom = serve::Telemetry::to_prometheus(snap);
  run.trace = trace.text();
  return run;
}

TEST(TelemetryGolden, ExportsAreByteStableAcrossThreadCounts) {
  const TelemetryRun one = run_telemetry_mix(1);
  const TelemetryRun seven = run_telemetry_mix(7);
  EXPECT_EQ(one.snapshot_json, seven.snapshot_json);
  EXPECT_EQ(one.prom, seven.prom);
  EXPECT_EQ(one.trace, seven.trace);
}

TEST(TelemetryGolden, Snapshot) {
  expect_matches_golden("telemetry_snapshot.json",
                        run_telemetry_mix(7).snapshot_json);
}

TEST(TelemetryGolden, Prometheus) {
  expect_matches_golden("telemetry_metrics.prom", run_telemetry_mix(7).prom);
}

TEST(TelemetryGolden, Trace) {
  expect_matches_golden("telemetry_trace.jsonl", run_telemetry_mix(7).trace);
}

// --- slow-request auto-profiling ---------------------------------------------

usize count_profiles(const std::filesystem::path& dir) {
  usize n = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 5 && name.find(".trace.") == std::string::npos &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      n++;
    }
  }
  return n;
}

TEST(SlowRequests, ZeroThresholdProfilesEveryCompletedRequest) {
  const auto dir =
      std::filesystem::temp_directory_path() / "eclp_slow_all";
  std::filesystem::remove_all(dir);
  serve::ServerOptions opt;
  opt.slow_ms = 0.0;  // real clock: every request's wall latency exceeds 0
  opt.slow_dir = dir.string();
  serve::Server server(opt);
  const auto responses = server.serve({
      make_request("slow-cc", serve::Algo::kCc, "rmat16.sym"),
      make_request("slow-mis", serve::Algo::kMis, "internet"),
  });
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, serve::Status::kOk);
  EXPECT_TRUE(std::filesystem::exists(dir / "slow-cc.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "slow-mis.json"));
  std::filesystem::remove_all(dir);
}

TEST(SlowRequests, FastRequestsLeaveNoArtifacts) {
  const auto dir =
      std::filesystem::temp_directory_path() / "eclp_slow_none";
  std::filesystem::remove_all(dir);
  serve::ServerOptions opt;
  opt.slow_ms = 1e9;  // nothing is that slow
  opt.slow_dir = dir.string();
  serve::Server server(opt);
  const auto responses = server.serve({
      make_request("fast-cc", serve::Algo::kCc, "rmat16.sym"),
  });
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, serve::Status::kOk);
  EXPECT_EQ(count_profiles(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SlowRequests, SlowCounterTracksThresholdCrossings) {
  const auto dir =
      std::filesystem::temp_directory_path() / "eclp_slow_counter";
  std::filesystem::remove_all(dir);
  metrics::Registry registry;
  serve::ServerOptions opt;
  opt.slow_ms = 0.0;
  opt.slow_dir = dir.string();
  opt.metrics = &registry;
  {
    serve::Server server(opt);
    server.serve({make_request("s1", serve::Algo::kCc, "rmat16.sym"),
                  make_request("s2", serve::Algo::kGc, "rmat16.sym")});
  }
  const metrics::Snapshot snap = registry.snapshot();
  u64 slow = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve.slow") slow = value;
  }
  EXPECT_EQ(slow, 2u);
  std::filesystem::remove_all(dir);
}

TEST(SlowRequests, ThresholdWithoutDirectoryThrows) {
  serve::ServerOptions opt;
  opt.slow_ms = 5.0;  // no slow_dir, no profile_dir
  EXPECT_THROW(serve::Server server(opt), CheckFailure);
}

}  // namespace
}  // namespace eclp
