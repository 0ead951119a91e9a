// Tests for the serving layer: the request/response schema
// (src/serve/request.*), the ref-counted in-process graph pool
// (src/graph/pool.*), and the concurrent Server (src/serve/server.*).
//
// The load-bearing claims pinned here:
//  * a served request is bit-identical (modeled cycles + solution
//    checksum) to the same run issued directly against a fresh Device —
//    i.e. serving is an execution vehicle, not a different semantics;
//  * the deterministic response rendering is byte-stable across serving
//    thread counts, pinned by tests/golden/serve_results.txt;
//  * pool admission/eviction bookkeeping adds up exactly (hits + misses
//    == requests, nothing evicted while pinned).
//
// Lives in eclp_parallel_tests so `ctest -L tsan` race-checks the same
// code paths (see also serve_stress_test.cpp for the saturation runs).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/cache.hpp"
#include "graph/pool.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "serve/server.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "support/metrics.hpp"

namespace eclp {
namespace {

/// Same 128-bit content mix Server uses for response checksums.
template <typename T, typename A>
std::string checksum_of(const std::vector<T, A>& v) {
  graph::CacheKey key;
  key.mix(std::string_view(reinterpret_cast<const char*>(v.data()),
                           v.size() * sizeof(T)));
  return key.hex();
}

graph::Csr line_graph(vidx n) {
  std::vector<graph::Edge> edges;
  for (vidx v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 0});
  graph::BuildOptions opt;
  return graph::from_edges(n, edges, opt);
}

// --- request schema ----------------------------------------------------------

TEST(ServeRequest, ParsesJsonlWithCommentsBlanksAndCrlf) {
  const std::string text =
      "# a comment line\r\n"
      "\r\n"
      "{\"algo\": \"cc\", \"input\": \"rmat16.sym\"}\r\n"
      "{\"id\": \"named\", \"algo\": \"mst\", \"input\": \"USA-road-d.NY\", "
      "\"scale\": \"small\", \"seed\": 7, \"weights\": 9}\n"
      "{\"algo\": \"scc\", \"graph\": \"/tmp/g.el\", \"directed\": true}";
  const auto reqs = serve::parse_requests_jsonl(text);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].id, "r0");  // anonymous ids index the request line
  EXPECT_EQ(reqs[0].algo, serve::Algo::kCc);
  EXPECT_EQ(reqs[0].input, "rmat16.sym");
  EXPECT_EQ(reqs[0].scale, gen::Scale::kTiny);
  EXPECT_EQ(reqs[1].id, "named");
  EXPECT_EQ(reqs[1].scale, gen::Scale::kSmall);
  EXPECT_EQ(reqs[1].seed, 7u);
  EXPECT_EQ(reqs[1].weights_seed, 9u);
  EXPECT_EQ(reqs[2].file, "/tmp/g.el");
  EXPECT_TRUE(reqs[2].directed);
}

TEST(ServeRequest, RejectsMalformedRequests) {
  // Unknown fields are an error so typos do not silently run defaults.
  EXPECT_THROW(serve::parse_requests_jsonl(
                   "{\"algo\": \"cc\", \"input\": \"internet\", "
                   "\"sale\": \"tiny\"}"),
               CheckFailure);
  // Exactly one of input/graph.
  EXPECT_THROW(serve::parse_requests_jsonl("{\"algo\": \"cc\"}"),
               CheckFailure);
  EXPECT_THROW(serve::parse_requests_jsonl(
                   "{\"algo\": \"cc\", \"input\": \"internet\", "
                   "\"graph\": \"g.el\"}"),
               CheckFailure);
  EXPECT_THROW(serve::parse_requests_jsonl(
                   "{\"algo\": \"pagerank\", \"input\": \"internet\"}"),
               CheckFailure);
}

/// A bad line is reported by its 1-based line number (comments and blank
/// lines count) with the check's own text and no source location.
TEST(ServeRequest, MalformedLineErrorNamesTheLineWithoutASourcePath) {
  const auto error_of = [](const std::string& text) {
    try {
      serve::parse_requests_jsonl(text);
    } catch (const CheckFailure& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string unknown_algo = error_of(
      "# header\n"
      "{\"algo\": \"cc\", \"input\": \"internet\"}\n"
      "{\"algo\": \"nope\", \"input\": \"internet\"}\n");
  EXPECT_EQ(unknown_algo.rfind("line 3: unknown algo 'nope'", 0), 0u)
      << unknown_algo;
  EXPECT_EQ(unknown_algo.find(".cpp:"), std::string::npos) << unknown_algo;

  const std::string bad_json = error_of(
      "\n{\"algo\": \"cc\", \"input\": \"internet\"\n");
  EXPECT_EQ(bad_json.rfind("line 2: JSON: ", 0), 0u) << bad_json;
  EXPECT_EQ(bad_json.find(".cpp:"), std::string::npos) << bad_json;
}

TEST(ServeRequest, JsonRoundTrip) {
  for (const gen::Scale scale : {gen::Scale::kTiny, gen::Scale::kSmall,
                                 gen::Scale::kDefault, gen::Scale::kHuge}) {
    serve::Request r;
    r.id = "round-trip";
    r.algo = serve::Algo::kMst;
    r.input = "USA-road-d.NY";
    r.scale = scale;
    r.seed = 123;
    r.weights_seed = 7;
    r.verify = true;
    const auto back = serve::Request::from_json(r.to_json(), 0);
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.algo, r.algo);
    EXPECT_EQ(back.input, r.input);
    EXPECT_EQ(back.scale, r.scale) << gen::scale_name(scale);
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.weights_seed, r.weights_seed);
    EXPECT_EQ(back.verify, r.verify);
  }
}

TEST(ServeRequest, TimingFieldsStayOutOfDeterministicRendering) {
  serve::Response r;
  r.id = "x";
  r.algo = serve::Algo::kCc;
  r.graph = "internet";
  r.summary = "CC: 1 components";
  r.modeled_cycles = 42;
  r.checksum = "00ff";
  r.pool_hit = true;
  r.wall_ms = 3.5;
  const std::string det = r.to_json(false).dump();
  EXPECT_EQ(det.find("wall_ms"), std::string::npos);
  EXPECT_EQ(det.find("pool"), std::string::npos);
  const std::string timed = r.to_json(true).dump();
  EXPECT_NE(timed.find("\"pool\":\"hit\""), std::string::npos);
  EXPECT_NE(timed.find("wall_ms"), std::string::npos);
}

// --- graph::Pool -------------------------------------------------------------

TEST(GraphPool, HitSharesTheResidentInstance) {
  graph::Pool pool(u64{64} << 20);
  u32 builds = 0;
  const auto build = [&] {
    ++builds;
    return line_graph(100);
  };
  auto a = pool.acquire("k", build);
  auto b = pool.acquire("k", build);
  EXPECT_EQ(builds, 1u);
  EXPECT_FALSE(a.was_hit());
  EXPECT_TRUE(b.was_hit());
  EXPECT_EQ(a.get(), b.get());  // literally the same resident CSR
  const auto s = pool.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.pins, 2u);
  EXPECT_EQ(s.pinned, 1u);
  EXPECT_EQ(s.bytes, graph::graph_bytes(*a));
}

TEST(GraphPool, EvictsLeastRecentlyUsedUnderBudget) {
  const u64 one = graph::graph_bytes(line_graph(256));
  graph::Pool pool(2 * one);  // room for two graphs, not three
  pool.acquire("a", [] { return line_graph(256); });
  pool.acquire("b", [] { return line_graph(256); });
  // Touch "a" so "b" is the LRU entry when "c" overflows the budget.
  pool.acquire("a", [] { return line_graph(256); });
  pool.acquire("c", [] { return line_graph(256); });
  EXPECT_TRUE(pool.contains("a"));
  EXPECT_FALSE(pool.contains("b"));
  EXPECT_TRUE(pool.contains("c"));
  const auto s = pool.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, pool.byte_budget());
  EXPECT_EQ(s.hits + s.misses, s.requests);
}

TEST(GraphPool, NeverEvictsAPinnedEntry) {
  const u64 one = graph::graph_bytes(line_graph(256));
  graph::Pool pool(one);  // budget for a single graph
  auto pinned = pool.acquire("pinned", [] { return line_graph(256); });
  // Both overflow the budget; the pinned entry must survive regardless.
  pool.acquire("other1", [] { return line_graph(256); });
  pool.acquire("other2", [] { return line_graph(256); });
  EXPECT_TRUE(pool.contains("pinned"));
  EXPECT_EQ(pinned->num_vertices(), 256u);  // still intact
  EXPECT_EQ(pool.stats().pinned, 1u);
  pinned.reset();
  // Last release re-checks the budget: the pool is back under it.
  EXPECT_LE(pool.stats().bytes, pool.byte_budget());
  EXPECT_EQ(pool.stats().pins, 0u);
}

TEST(GraphPool, ZeroBudgetMeansDropOnLastRelease) {
  graph::Pool pool(0);
  u32 builds = 0;
  {
    auto a = pool.acquire("k", [&] { ++builds; return line_graph(64); });
    auto b = pool.acquire("k", [&] { ++builds; return line_graph(64); });
    EXPECT_TRUE(b.was_hit());  // sharing still works while pinned
    EXPECT_EQ(pool.stats().entries, 1u);
  }
  EXPECT_EQ(pool.stats().entries, 0u);
  pool.acquire("k", [&] { ++builds; return line_graph(64); });
  EXPECT_EQ(builds, 2u);  // rebuilt: nothing stays resident
}

TEST(GraphPool, ConcurrentAcquiresAreSingleFlight) {
  graph::Pool pool(u64{64} << 20);
  std::atomic<u32> builds{0};
  constexpr u32 kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<const graph::Csr*> seen(kThreads, nullptr);
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto pin = pool.acquire("shared", [&] {
        builds.fetch_add(1);
        return line_graph(2000);
      });
      seen[t] = pin.get();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1u);  // one build, amortized across all waiters
  for (u32 t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  const auto s = pool.stats();
  EXPECT_EQ(s.requests, kThreads);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(s.pins, 0u);
}

TEST(GraphPool, FailedBuildLeavesNoTraceAndWaitersRetry) {
  graph::Pool pool(u64{64} << 20);
  u32 attempts = 0;
  const auto flaky = [&]() -> graph::Csr {
    if (++attempts == 1) throw CheckFailure("synthetic build failure");
    return line_graph(32);
  };
  EXPECT_THROW(pool.acquire("k", flaky), CheckFailure);
  EXPECT_FALSE(pool.contains("k"));
  EXPECT_EQ(pool.stats().pins, 0u);
  auto pin = pool.acquire("k", flaky);  // clean retry succeeds
  EXPECT_EQ(pin->num_vertices(), 32u);
  EXPECT_EQ(attempts, 2u);
}

TEST(GraphPool, PinMoveTransfersTheRefCount) {
  graph::Pool pool(u64{64} << 20);
  auto a = pool.acquire("k", [] { return line_graph(16); });
  graph::Pool::Pin b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): post-move probe
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.stats().pins, 1u);
  b.reset();
  EXPECT_EQ(pool.stats().pins, 0u);
}

// --- Server ------------------------------------------------------------------

serve::Request make_request(const std::string& id, serve::Algo algo,
                            const std::string& input, u64 seed = 0) {
  serve::Request r;
  r.id = id;
  r.algo = algo;
  r.input = input;
  r.scale = gen::Scale::kTiny;
  r.seed = seed;
  r.verify = true;
  return r;
}

/// The fixed request mix behind the determinism golden: all five
/// algorithms, repeated specs (pool hits), a nonzero-seed (shuffled
/// schedule) variant, and one guaranteed-failing request.
std::vector<serve::Request> golden_mix() {
  std::vector<serve::Request> reqs;
  reqs.push_back(make_request("cc-rmat", serve::Algo::kCc, "rmat16.sym"));
  reqs.push_back(make_request("gc-rmat", serve::Algo::kGc, "rmat16.sym"));
  reqs.push_back(make_request("mis-inet", serve::Algo::kMis, "internet"));
  reqs.push_back(
      make_request("mst-road", serve::Algo::kMst, "USA-road-d.NY"));
  reqs.push_back(make_request("scc-cold", serve::Algo::kScc, "cold-flow"));
  reqs.push_back(
      make_request("cc-rmat-again", serve::Algo::kCc, "rmat16.sym"));
  reqs.push_back(
      make_request("mis-inet-seeded", serve::Algo::kMis, "internet", 12345));
  // SCC needs a directed graph; rmat16.sym is undirected -> typed error.
  serve::Request bad = make_request("scc-undirected", serve::Algo::kScc,
                                    "rmat16.sym");
  reqs.push_back(bad);
  return reqs;
}

std::string serve_deterministic_jsonl(u32 threads) {
  serve::ServerOptions opt;
  opt.threads = threads;
  serve::Server server(opt);
  return serve::responses_to_jsonl(server.serve(golden_mix()), false);
}

// Same convention as session_test.cpp: regenerate with
//   ECLP_UPDATE_GOLDEN=1 ./eclp_parallel_tests --gtest_filter='ServeGolden.*'
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

/// A served request must be bit-identical to the same run issued directly
/// against a fresh deterministic Device — serving adds concurrency, not
/// semantics. (The one-shot CLI is this direct path; tests/serve_smoke
/// covers the actual binary.) All five algorithms, plus the preparation
/// rules the server applies before running: MST attaches weights from
/// `weights_seed`, SCC keeps the directed graph, and a reorder and the LLC
/// spec reach the graph and the Device. Each reference prepares its graph
/// and runs its algorithm by hand, so it cannot share a defect with the
/// serving path.
TEST(Server, ServedResultMatchesDirectRun) {
  serve::Request mst = make_request("mst", serve::Algo::kMst, "rmat16.sym");
  mst.weights_seed = 9;
  serve::Request hub = make_request("cc-hub", serve::Algo::kCc, "rmat16.sym");
  hub.reorder = "hub";
  hub.llc = "on";
  serve::Server server;
  auto responses = server.serve({
      make_request("cc", serve::Algo::kCc, "rmat16.sym"),
      make_request("mis", serve::Algo::kMis, "internet", 7),
      make_request("gc", serve::Algo::kGc, "rmat16.sym"),
      mst,
      make_request("scc", serve::Algo::kScc, "cold-flow"),
      hub,
  });
  ASSERT_EQ(responses.size(), 6u);
  for (const auto& r : responses) {
    ASSERT_EQ(r.status, serve::Status::kOk) << r.id << ": " << r.error;
  }

  const auto rmat = gen::find_input("rmat16.sym").make(gen::Scale::kTiny);
  {
    sim::Device dev(sim::CostModel{}, 0, sim::ScheduleMode::kDeterministic);
    const auto res = algos::cc::run(dev, rmat);
    EXPECT_EQ(responses[0].modeled_cycles, res.modeled_cycles);
    EXPECT_EQ(responses[0].checksum, checksum_of(res.labels));
  }
  {
    const auto g = gen::find_input("internet").make(gen::Scale::kTiny);
    sim::Device dev(sim::CostModel{}, 7, sim::ScheduleMode::kShuffled);
    const auto res = algos::mis::run(dev, g);
    EXPECT_EQ(responses[1].modeled_cycles, res.modeled_cycles);
    EXPECT_EQ(responses[1].checksum, checksum_of(res.status));
  }
  {
    sim::Device dev(sim::CostModel{}, 0, sim::ScheduleMode::kDeterministic);
    const auto res = algos::gc::run(dev, rmat);
    EXPECT_EQ(responses[2].modeled_cycles, res.modeled_cycles);
    EXPECT_EQ(responses[2].checksum, checksum_of(res.colors));
  }
  {
    ASSERT_FALSE(rmat.weighted());
    const auto g = graph::with_random_weights(rmat, 9);
    sim::Device dev(sim::CostModel{}, 0, sim::ScheduleMode::kDeterministic);
    const auto res = algos::mst::run(dev, g);
    EXPECT_EQ(responses[3].modeled_cycles, res.modeled_cycles);
    EXPECT_EQ(responses[3].checksum, checksum_of(res.in_mst));
    // The default weight seed is a different problem: the seed must land.
    const auto g42 = graph::with_random_weights(rmat, 42);
    sim::Device dev42(sim::CostModel{}, 0, sim::ScheduleMode::kDeterministic);
    EXPECT_NE(responses[3].checksum,
              checksum_of(algos::mst::run(dev42, g42).in_mst));
  }
  {
    const auto g = gen::find_input("cold-flow").make(gen::Scale::kTiny);
    ASSERT_TRUE(g.directed());
    sim::Device dev(sim::CostModel{}, 0, sim::ScheduleMode::kDeterministic);
    const auto res = algos::scc::run(dev, g);
    EXPECT_EQ(responses[4].modeled_cycles, res.modeled_cycles);
    EXPECT_EQ(responses[4].checksum, checksum_of(res.scc_id));
  }
  {
    const auto g =
        graph::apply_reorder(rmat, graph::ReorderSpec::parse("hub"));
    sim::CostModel cost;
    cost.cache = sim::parse_cache_config("on");
    sim::Device dev(cost, 0, sim::ScheduleMode::kDeterministic);
    const auto res = algos::cc::run(dev, g);
    EXPECT_EQ(responses[5].modeled_cycles, res.modeled_cycles);
    EXPECT_EQ(responses[5].checksum, checksum_of(res.labels));
    EXPECT_EQ(responses[5].llc_hits, dev.llc_hits());
    EXPECT_EQ(responses[5].llc_misses, dev.llc_misses());
    EXPECT_GT(dev.llc_hits() + dev.llc_misses(), 0u);
  }
}

TEST(Server, SharesOnePooledGraphAcrossAlgorithms) {
  // cc and gc over the same input want the same algorithm-ready graph.
  EXPECT_EQ(serve::Server::graph_key(
                make_request("a", serve::Algo::kCc, "rmat16.sym")),
            serve::Server::graph_key(
                make_request("b", serve::Algo::kGc, "rmat16.sym")));
  // MST attaches weights; SCC wants the directed form: distinct keys.
  EXPECT_NE(serve::Server::graph_key(
                make_request("a", serve::Algo::kCc, "rmat16.sym")),
            serve::Server::graph_key(
                make_request("c", serve::Algo::kMst, "rmat16.sym")));
  EXPECT_NE(serve::Server::graph_key(
                make_request("a", serve::Algo::kCc, "cold-flow")),
            serve::Server::graph_key(
                make_request("d", serve::Algo::kScc, "cold-flow")));

  serve::Server server;
  auto responses = server.serve({
      make_request("first", serve::Algo::kCc, "rmat16.sym"),
      make_request("second", serve::Algo::kGc, "rmat16.sym"),
  });
  const auto s = server.stats();
  EXPECT_EQ(s.graphs.misses, 1u);
  EXPECT_EQ(s.graphs.hits, 1u);
}

TEST(Server, ReorderAndLlcSpecsSplitThePoolKey) {
  const auto base = make_request("a", serve::Algo::kCc, "rmat16.sym");
  const auto with = [&](const std::string& reorder, const std::string& llc) {
    serve::Request r = base;
    r.reorder = reorder;
    r.llc = llc;
    return serve::Server::graph_key(r);
  };
  // Spelling variants of one canonical spec share a pool entry...
  EXPECT_EQ(with("", ""), with("natural", "off"));
  EXPECT_EQ(with("random", ""), with("random:1", ""));
  EXPECT_EQ(with("", "on"), with("", "64:8:64"));
  // ...but any semantic difference splits the key: a reordered graph must
  // never alias a natural-order entry, and an LLC shape change alters
  // every modeled result computed on the pooled graph.
  EXPECT_NE(with("", ""), with("hub", ""));
  EXPECT_NE(with("hub", ""), with("gorder", ""));
  EXPECT_NE(with("gorder:8", ""), with("gorder:4", ""));
  EXPECT_NE(with("", ""), with("", "on"));
  EXPECT_NE(with("", "on"), with("", "32:4:16"));

  // Cold/warm through the live pool: a repeated reorder spec hits the
  // resident relabeled graph; a different spec builds its own.
  serve::Server server;
  const auto reordered = [&](const std::string& id,
                             const std::string& reorder) {
    serve::Request r = make_request(id, serve::Algo::kCc, "rmat16.sym");
    r.reorder = reorder;
    return r;
  };
  const auto responses = server.serve({reordered("cold", "hub"),
                                       reordered("warm", "hub"),
                                       reordered("other", "random")});
  for (const auto& r : responses) {
    EXPECT_EQ(r.status, serve::Status::kOk) << r.id << ": " << r.error;
  }
  const auto s = server.stats();
  EXPECT_EQ(s.graphs.misses, 2u);
  EXPECT_EQ(s.graphs.hits, 1u);
}

TEST(Server, MalformedReorderSpecBecomesATypedError) {
  serve::Server server;
  serve::Request bad = make_request("bad", serve::Algo::kCc, "rmat16.sym");
  bad.reorder = "zorder";
  serve::Request bad_llc =
      make_request("bad-llc", serve::Algo::kCc, "rmat16.sym");
  bad_llc.llc = "64:8";
  serve::Request huge_llc =
      make_request("huge-llc", serve::Algo::kCc, "rmat16.sym");
  huge_llc.llc = "99999999999999999999:8:64";
  serve::Request missing = make_request("missing", serve::Algo::kCc, "");
  missing.file = "no-such-dir/missing.mtx";
  const auto responses = server.serve({bad, bad_llc, huge_llc, missing});
  ASSERT_EQ(responses.size(), 4u);
  // The response carries the check's own text: the same request gives the
  // same line from any checkout, with no source file or line in it.
  const std::string expected[] = {
      "unknown reorder spec 'zorder' (expected natural, random[:SEED], bfs, "
      "degree, hub, hubcluster, gorder[:WINDOW])",
      "llc spec must be off, on, or LINE:WAYS:SETS, got '64:8'",
      "llc spec field does not fit 32 bits in '99999999999999999999:8:64'",
      "cannot open no-such-dir/missing.mtx"};
  for (usize i = 0; i < 4; ++i) {
    EXPECT_EQ(responses[i].status, serve::Status::kError) << responses[i].id;
    EXPECT_EQ(responses[i].error, expected[i]) << responses[i].id;
    EXPECT_EQ(responses[i].error.find(".cpp:"), std::string::npos);
  }
}

TEST(Server, LlcRequestMatchesDirectCacheEnabledRun) {
  serve::Server server;
  serve::Request req = make_request("llc", serve::Algo::kCc, "rmat16.sym");
  req.llc = "on";
  const auto responses = server.serve({req});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].status, serve::Status::kOk);

  const auto g = gen::find_input("rmat16.sym").make(gen::Scale::kTiny);
  sim::CostModel cost;
  cost.cache = sim::parse_cache_config("on");
  sim::Device dev(cost, 0, sim::ScheduleMode::kDeterministic);
  const auto res = algos::cc::run(dev, g);
  EXPECT_EQ(responses[0].modeled_cycles, res.modeled_cycles);
  EXPECT_EQ(responses[0].checksum, checksum_of(res.labels));
  EXPECT_GT(dev.llc_hits() + dev.llc_misses(), 0u);
}

TEST(Server, ResponsesComeBackInRequestOrder) {
  serve::ServerOptions opt;
  opt.threads = 7;
  serve::Server server(opt);
  std::vector<serve::Request> reqs;
  for (u32 i = 0; i < 24; ++i) {
    reqs.push_back(make_request("r" + std::to_string(i),
                                i % 2 == 0 ? serve::Algo::kCc
                                           : serve::Algo::kMis,
                                i % 3 == 0 ? "internet" : "rmat16.sym"));
  }
  const auto responses = server.serve(reqs);
  ASSERT_EQ(responses.size(), reqs.size());
  for (u32 i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(responses[i].id, reqs[i].id);
    EXPECT_EQ(responses[i].status, serve::Status::kOk);
  }
}

TEST(Server, RejectsWhenQueueIsFullAndRecovers) {
  serve::ServerOptions opt;
  opt.threads = 1;
  opt.max_queue = 2;
  opt.manual_start = true;  // fill the queue before the workers run
  serve::Server server(opt);
  std::vector<std::future<serve::Response>> futures;
  for (u32 i = 0; i < 4; ++i) {
    futures.push_back(server.submit(
        make_request("q" + std::to_string(i), serve::Algo::kCc, "internet")));
  }
  // Admission decided synchronously: 2 queued, 2 rejected, none executed.
  auto s = server.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.completed, 0u);
  // Rejected futures are already fulfilled with the typed response.
  for (u32 i = 2; i < 4; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto r = futures[i].get();
    EXPECT_EQ(r.status, serve::Status::kRejected);
    EXPECT_NE(r.error.find("queue full"), std::string::npos);
    EXPECT_EQ(r.id, "q" + std::to_string(i));
  }
  server.start();
  for (u32 i = 0; i < 2; ++i) {
    EXPECT_EQ(futures[i].get().status, serve::Status::kOk);
  }
  // The server accepts again once the queue drained.
  EXPECT_EQ(server.submit(make_request("again", serve::Algo::kCc, "internet"))
                .get()
                .status,
            serve::Status::kOk);
  s = server.stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.accepted, s.completed + s.failed);
}

TEST(Server, TracksQueueDepthAndHighWaterMark) {
  serve::ServerOptions opt;
  opt.threads = 2;
  opt.manual_start = true;  // queue fills before the workers drain it
  serve::Server server(opt);
  std::vector<std::future<serve::Response>> futures;
  for (u32 i = 0; i < 5; ++i) {
    futures.push_back(server.submit(
        make_request("d" + std::to_string(i), serve::Algo::kCc, "internet")));
  }
  auto s = server.stats();
  EXPECT_EQ(s.queue_depth, 5u);
  EXPECT_EQ(s.queue_peak, 5u);
  server.start();
  for (auto& f : futures) f.get();
  s = server.stats();
  // Drained: depth returns to zero, the high-water mark stays.
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.queue_peak, 5u);
}

/// Head-of-line blocking: a request admitted while a long one executes
/// must not wait for it. With two workers, a tiny CC request submitted
/// after a small-scale mesh SCC started resolves while the SCC still runs.
TEST(Server, ShortRequestDoesNotWaitForALongOne) {
  metrics::Registry registry;
  serve::ServerOptions opt;
  opt.threads = 2;
  opt.metrics = &registry;
  serve::Server server(opt);
  serve::Request scc =
      make_request("long-scc", serve::Algo::kScc, "toroid-hex");
  scc.scale = gen::Scale::kSmall;
  std::future<serve::Response> long_f = server.submit(scc);
  // serve.inflight rises just before the request's "started" trace event.
  const metrics::Gauge& inflight = registry.gauge("serve.inflight");
  while (inflight.value() == 0) std::this_thread::yield();
  std::future<serve::Response> short_f =
      server.submit(make_request("short-cc", serve::Algo::kCc, "internet"));
  ASSERT_EQ(short_f.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  EXPECT_EQ(long_f.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the short request waited for the long one";
  EXPECT_EQ(short_f.get().status, serve::Status::kOk);
  EXPECT_EQ(long_f.get().status, serve::Status::kOk);
}

/// A wave (busy period) is recorded before the response that closes it
/// resolves, so wave metrics are complete once the caller holds every
/// response: no need to destroy the Server first.
TEST(Server, WaveMetricsAreCompleteWhenTheLastResponseResolves) {
  metrics::Registry registry;
  serve::ServerOptions opt;
  opt.threads = 4;
  opt.manual_start = true;  // one pre-filled batch: exactly one wave
  opt.metrics = &registry;
  serve::Server server(opt);
  std::vector<std::future<serve::Response>> futures;
  for (u32 i = 0; i < 6; ++i) {
    futures.push_back(server.submit(make_request(
        "w" + std::to_string(i), serve::Algo::kCc, "internet")));
  }
  server.start();
  for (auto& f : futures) f.get();
  const metrics::Counter& waves = registry.counter("serve.waves");
  EXPECT_EQ(waves.value(), 1u);
  server.serve({make_request("single", serve::Algo::kMis, "internet")});
  EXPECT_EQ(waves.value(), 2u);
}

TEST(Server, StatsJsonRoundTripsWithConsistentInvariants) {
  serve::Server server;
  server.serve({
      make_request("cc-a", serve::Algo::kCc, "rmat16.sym"),
      make_request("cc-b", serve::Algo::kCc, "rmat16.sym"),
      make_request("mis", serve::Algo::kMis, "internet"),
      make_request("bad-scc", serve::Algo::kScc, "rmat16.sym"),
  });
  const json::Value doc =
      json::Value::parse(serve::stats_to_json(server.stats()).dump(2));
  for (const char* field : {"submitted", "accepted", "rejected", "completed",
                            "failed", "queue_depth", "queue_peak"}) {
    ASSERT_NE(doc.find(field), nullptr) << "missing field " << field;
  }
  const json::Value& pool = doc.at("graph_pool");
  for (const char* field : {"requests", "hits", "misses", "evictions",
                            "bytes", "peak_bytes", "entries", "pins"}) {
    ASSERT_NE(pool.find(field), nullptr) << "missing pool field " << field;
  }
  EXPECT_EQ(pool.at("hits").as_u64() + pool.at("misses").as_u64(),
            pool.at("requests").as_u64());
  EXPECT_EQ(doc.at("submitted").as_u64(),
            doc.at("accepted").as_u64() + doc.at("rejected").as_u64());
  EXPECT_EQ(doc.at("completed").as_u64() + doc.at("failed").as_u64(), 4u);
  EXPECT_EQ(doc.at("failed").as_u64(), 1u);  // bad-scc
  EXPECT_EQ(doc.at("queue_depth").as_u64(), 0u);
  EXPECT_GE(doc.at("queue_peak").as_u64(), 1u);
  EXPECT_EQ(pool.at("pins").as_u64(), 0u);  // nothing in flight
}

TEST(Server, ExecutionFailuresBecomeTypedErrorResponses) {
  serve::Server server;
  auto responses = server.serve({
      make_request("good", serve::Algo::kCc, "rmat16.sym"),
      make_request("bad-input", serve::Algo::kCc, "no-such-input"),
      make_request("bad-scc", serve::Algo::kScc, "rmat16.sym"),
  });
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, serve::Status::kOk);
  EXPECT_EQ(responses[1].status, serve::Status::kError);
  EXPECT_FALSE(responses[1].error.empty());
  EXPECT_EQ(responses[2].status, serve::Status::kError);
  EXPECT_NE(responses[2].error.find("directed"), std::string::npos);
  const auto s = server.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 2u);
}

TEST(Server, ProfileDirWritesPerRequestSessions) {
  const auto dir = std::filesystem::temp_directory_path() / "eclp_serve_prof";
  std::filesystem::remove_all(dir);
  {
    serve::ServerOptions opt;
    opt.profile_dir = dir.string();
    serve::Server server(opt);
    auto responses = server.serve({
        make_request("alpha", serve::Algo::kCc, "rmat16.sym"),
        make_request("beta/0", serve::Algo::kMis, "internet"),
    });
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].status, serve::Status::kOk);
  }
  // One eclp.profile JSON + one Perfetto twin per request; unsafe id
  // characters sanitized.
  EXPECT_TRUE(std::filesystem::exists(dir / "alpha.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "alpha.trace.json"));
  EXPECT_TRUE(std::filesystem::exists(dir / "beta_0.json"));
  std::ifstream is(dir / "alpha.json");
  std::stringstream body;
  body << is.rdbuf();
  const auto doc = json::Value::parse(body.str());
  EXPECT_EQ(doc.at("meta").at("tool").as_string(), "eclp-serve");
  EXPECT_EQ(doc.at("meta").at("request").as_string(), "alpha");
  std::filesystem::remove_all(dir);
}

// --- determinism goldens -----------------------------------------------------

TEST(ServeGolden, DeterministicRenderingIsByteStableAcrossThreadCounts) {
  const std::string one = serve_deterministic_jsonl(1);
  const std::string many = serve_deterministic_jsonl(7);
  EXPECT_EQ(one, many);
}

TEST(ServeGolden, Results) {
  expect_matches_golden("serve_results.txt", serve_deterministic_jsonl(7));
}

}  // namespace
}  // namespace eclp
