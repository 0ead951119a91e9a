// Saturation tests for the serving stack (graph::Pool + serve::Server):
// many submitter threads, a graph pool deliberately sized to force
// continuous eviction, and mixed request streams. Lives in
// eclp_parallel_tests so `ctest -L tsan` runs exactly these under
// ThreadSanitizer — the pool's single-flight build, pin ref-counting, and
// LRU eviction are the shared mutable state of the whole serving layer.
//
// Invariants asserted after every storm:
//  * hits + misses == requests (every acquire classified exactly once);
//  * all pins released (pins == 0, pinned == 0) — refcounts return to zero;
//  * no graph is evicted while pinned: every pinned graph stays intact and
//    readable for the lifetime of its pin (checked by content, and by the
//    pool's own ECLP_CHECK on the eviction path);
//  * resident bytes return under the budget once all pins drop;
//  * responses are consistent: the same request spec always produces the
//    same checksum, no matter which thread ran it or whether its graph
//    was a pool hit, a fresh build, or a rebuild after eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/pool.hpp"
#include "serve/server.hpp"
#include "support/metrics.hpp"

namespace eclp {
namespace {

graph::Csr ring_graph(vidx n) {
  std::vector<graph::Edge> edges;
  for (vidx v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n, 0});
  graph::BuildOptions opt;
  return graph::from_edges(n, edges, opt);
}

/// Thrash a small pool from many threads; every pin is verified against
/// the graph its key promises while held (an eviction-while-pinned or a
/// cross-key mixup would be caught immediately, and under TSan any
/// unsynchronized access to the entry table races loudly).
TEST(ServeStress, PoolSurvivesConcurrentThrashingWithEviction) {
  constexpr u32 kKeys = 8;
  constexpr u32 kThreads = 8;
  constexpr u32 kAcquiresPerThread = 200;
  const std::vector<vidx> sizes = {64, 96, 128, 160, 192, 224, 256, 288};
  // Budget fits roughly two of the graphs: most acquires evict something.
  graph::Pool pool(2 * graph::graph_bytes(ring_graph(160)));

  std::atomic<u64> builds{0};
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u32 i = 0; i < kAcquiresPerThread; ++i) {
        // Deterministic per-thread walk, out of phase across threads so
        // hits, misses, waits-on-inflight-build, and evictions all occur.
        const u32 k = (t * 13 + i * 7) % kKeys;
        const vidx n = sizes[k];
        auto pin = pool.acquire("ring" + std::to_string(k), [&, n] {
          builds.fetch_add(1);
          return ring_graph(n);
        });
        ASSERT_TRUE(pin.valid());
        // The pinned graph must be the right one and fully intact.
        ASSERT_EQ(pin->num_vertices(), n);
        ASSERT_EQ(pin->num_edges(), 2u * n);
        ASSERT_EQ(pin->neighbors(0).size(), 2u);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto s = pool.stats();
  EXPECT_EQ(s.requests, u64{kThreads} * kAcquiresPerThread);
  EXPECT_EQ(s.hits + s.misses, s.requests);  // classified exactly once
  EXPECT_EQ(s.misses, builds.load());        // every miss is one build
  EXPECT_EQ(s.pins, 0u);                     // refcounts back to zero
  EXPECT_EQ(s.pinned, 0u);
  EXPECT_GE(s.evictions, 1u);                // the budget actually bit
  EXPECT_LE(s.bytes, pool.byte_budget());    // and is respected at rest
  EXPECT_GE(s.peak_bytes, s.bytes);
}

/// Pins must keep their entries alive across heavy eviction pressure from
/// other threads (the "no graph evicted while pinned" contract, held for
/// long stretches rather than checked at a single instant).
TEST(ServeStress, PinnedGraphsSurviveEvictionPressure) {
  graph::Pool pool(graph::graph_bytes(ring_graph(64)));  // one-graph budget
  auto held = pool.acquire("held", [] { return ring_graph(300); });

  std::vector<std::thread> threads;
  for (u32 t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (u32 i = 0; i < 100; ++i) {
        auto pin = pool.acquire(
            "churn" + std::to_string(t) + "_" + std::to_string(i % 5),
            [] { return ring_graph(64); });
        ASSERT_EQ(pin->num_vertices(), 64u);
        // The long-held pin stays intact under everyone else's churn.
        ASSERT_EQ(held->num_vertices(), 300u);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(pool.contains("held"));  // never evicted while pinned
  held.reset();
  const auto s = pool.stats();
  EXPECT_EQ(s.pins, 0u);
  EXPECT_LE(s.bytes, pool.byte_budget());
  EXPECT_EQ(s.hits + s.misses, s.requests);
}

/// Regression: stats() used to count a request at acquire() entry but
/// classify it as a hit or miss only later, so a snapshot taken while a
/// build was in flight — in particular a failing build with a crowd of
/// waiters parked behind it — saw hits + misses < requests. The documented
/// invariant must hold at every instant, across the failed-build retry
/// path included.
TEST(ServeStress, StatsInvariantHoldsWhileAFailedBuildIsInFlight) {
  constexpr u32 kWaiters = 4;
  graph::Pool pool(1 << 20);

  std::atomic<u32> entered{0};       // waiters that have reached acquire()
  std::atomic<bool> sampled{false};  // main thread took the mid-build sample
  std::atomic<u64> builds{0};
  std::promise<void> first_build_running;
  auto build = [&]() -> graph::Csr {
    if (builds.fetch_add(1) == 0) {
      first_build_running.set_value();
      // Hold the doomed build open until every waiter is inside acquire()
      // and the main thread has sampled stats() mid-flight, then fail.
      while (entered.load() < kWaiters || !sampled.load()) {
        std::this_thread::yield();
      }
      throw std::runtime_error("synthetic build failure");
    }
    return ring_graph(32);
  };

  std::atomic<u32> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // first builder: its acquire() rethrows
    try {
      auto pin = pool.acquire("flaky", build);
      ADD_FAILURE() << "first build unexpectedly succeeded";
    } catch (const std::runtime_error&) {
      failures.fetch_add(1);
    }
  });
  first_build_running.get_future().wait();
  for (u32 t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      entered.fetch_add(1);
      // Parks behind the in-flight failing build, then retries: exactly
      // one waiter becomes the second builder, the rest hit its entry.
      auto pin = pool.acquire("flaky", build);
      ASSERT_TRUE(pin.valid());
      ASSERT_EQ(pin->num_vertices(), 32u);
    });
  }
  // Let the waiters pass acquire() entry and park behind the placeholder,
  // then snapshot while the doomed build is still running.
  while (entered.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    const auto s = pool.stats();
    EXPECT_EQ(s.hits + s.misses, s.requests)
        << "stats() snapshot during an in-flight build breaks the invariant";
  }
  sampled.store(true);
  for (auto& th : threads) th.join();

  const auto s = pool.stats();
  EXPECT_EQ(s.requests, u64{kWaiters} + 1);
  EXPECT_EQ(s.hits + s.misses, s.requests);
  EXPECT_EQ(s.misses, 2u);  // the failed attempt and the successful retry
  EXPECT_EQ(s.hits, u64{kWaiters} - 1);
  EXPECT_EQ(builds.load(), 2u);
  EXPECT_EQ(failures.load(), 1u);
  EXPECT_EQ(s.pins, 0u);
  EXPECT_TRUE(pool.contains("flaky"));
}

/// Full-stack storm: submitter threads firing mixed algorithm requests at
/// a Server whose graph pool is far too small for the working set, so
/// requests continuously rebuild, share, and evict graphs while the
/// server's workers run them concurrently.
TEST(ServeStress, ServerHandlesConcurrentMixedLoadWithTinyPool) {
  metrics::Registry registry;
  serve::ServerOptions opt;
  opt.threads = 4;
  opt.max_queue = 1024;
  opt.graph_pool_bytes = 64 << 10;  // ~one tiny suite graph: forces eviction
  opt.metrics = &registry;
  serve::Server server(opt);

  struct Spec {
    serve::Algo algo;
    const char* input;
    u64 seed;
  };
  const std::vector<Spec> specs = {
      {serve::Algo::kCc, "rmat16.sym", 0},
      {serve::Algo::kGc, "rmat16.sym", 0},
      {serve::Algo::kMis, "internet", 0},
      {serve::Algo::kMis, "internet", 7},
      {serve::Algo::kCc, "cold-flow", 0},
      {serve::Algo::kMst, "USA-road-d.NY", 0},
  };

  constexpr u32 kThreads = 4;
  constexpr u32 kPerThread = 12;
  std::mutex collected_mutex;
  std::vector<serve::Response> collected;
  std::vector<std::thread> submitters;
  for (u32 t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<serve::Response>> futures;
      for (u32 i = 0; i < kPerThread; ++i) {
        const Spec& spec = specs[(t + i) % specs.size()];
        serve::Request r;
        r.id = "t" + std::to_string(t) + "-" + std::to_string(i);
        r.algo = spec.algo;
        r.input = spec.input;
        r.scale = gen::Scale::kTiny;
        r.seed = spec.seed;
        futures.push_back(server.enqueue(std::move(r)));
      }
      std::vector<serve::Response> mine;
      mine.reserve(futures.size());
      for (auto& f : futures) mine.push_back(f.get());
      std::lock_guard<std::mutex> lk(collected_mutex);
      for (auto& r : mine) collected.push_back(std::move(r));
    });
  }
  for (auto& th : submitters) th.join();

  ASSERT_EQ(collected.size(), u64{kThreads} * kPerThread);
  // Same spec -> same result, independent of thread, wave, or pool state.
  std::map<std::string, std::string> checksum_by_spec;
  for (const auto& r : collected) {
    ASSERT_EQ(r.status, serve::Status::kOk) << r.id << ": " << r.error;
    EXPECT_FALSE(r.checksum.empty());
    const std::string spec_key =
        std::string(serve::algo_name(r.algo)) + "|" + r.graph + "|" +
        r.summary;
    const auto [it, fresh] =
        checksum_by_spec.emplace(spec_key, r.checksum);
    EXPECT_EQ(it->second, r.checksum) << "divergent result for " << spec_key;
    (void)fresh;
  }

  const auto s = server.stats();
  EXPECT_EQ(s.submitted, collected.size());
  EXPECT_EQ(s.accepted, s.submitted);  // enqueue never rejects
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.graphs.requests, s.completed);  // one acquire per request
  EXPECT_EQ(s.graphs.hits + s.graphs.misses, s.graphs.requests);
  EXPECT_EQ(s.graphs.pins, 0u);    // every request released its pin
  EXPECT_EQ(s.graphs.pinned, 0u);
  EXPECT_GE(s.graphs.evictions, 1u);  // the tiny budget actually evicted
  EXPECT_LE(s.graphs.bytes, opt.graph_pool_bytes);

  // stats() is a read of the bound registry: one tally, two renderings.
  const auto counter = [&](const char* name) {
    return registry.counter(name).value();
  };
  const auto gauge = [&](const char* name) {
    return static_cast<u64>(registry.gauge(name).value());
  };
  EXPECT_EQ(s.submitted, counter("serve.submitted"));
  EXPECT_EQ(s.accepted, counter("serve.accepted"));
  EXPECT_EQ(s.rejected, counter("serve.rejected"));
  EXPECT_EQ(s.completed, counter("serve.completed"));
  EXPECT_EQ(s.failed, counter("serve.failed"));
  EXPECT_EQ(s.queue_depth, gauge("serve.queue.depth"));
  EXPECT_EQ(s.queue_peak, gauge("serve.queue.peak"));
  EXPECT_EQ(s.graphs.hits, counter("pool.hits"));
  EXPECT_EQ(s.graphs.misses, counter("pool.misses"));
  EXPECT_EQ(s.graphs.evictions, counter("pool.evictions"));
  EXPECT_EQ(s.graphs.bytes, gauge("pool.bytes"));
  EXPECT_EQ(s.graphs.entries, gauge("pool.entries"));
}

/// submit() under storm: some requests bounce off the admission bound,
/// but every future resolves, rejected ones carry the typed status, and
/// accepted + rejected == submitted.
TEST(ServeStress, AdmissionControlStaysConsistentUnderConcurrentSubmit) {
  serve::ServerOptions opt;
  opt.threads = 2;
  opt.max_queue = 4;  // small bound: storms must trip rejection
  serve::Server server(opt);

  constexpr u32 kThreads = 6;
  constexpr u32 kPerThread = 30;
  std::atomic<u64> ok{0};
  std::atomic<u64> rejected{0};
  std::vector<std::thread> submitters;
  for (u32 t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (u32 i = 0; i < kPerThread; ++i) {
        serve::Request r;
        r.id = "s" + std::to_string(t) + "-" + std::to_string(i);
        r.algo = serve::Algo::kCc;
        r.input = "rmat16.sym";
        r.scale = gen::Scale::kTiny;
        const auto resp = server.submit(std::move(r)).get();
        if (resp.status == serve::Status::kOk) {
          ok.fetch_add(1);
        } else {
          ASSERT_EQ(resp.status, serve::Status::kRejected);
          ASSERT_NE(resp.error.find("queue full"), std::string::npos);
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : submitters) th.join();

  EXPECT_EQ(ok.load() + rejected.load(), u64{kThreads} * kPerThread);
  const auto s = server.stats();
  EXPECT_EQ(s.submitted, u64{kThreads} * kPerThread);
  EXPECT_EQ(s.accepted, ok.load());
  EXPECT_EQ(s.rejected, rejected.load());
  EXPECT_EQ(s.completed, s.accepted);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.graphs.pins, 0u);
}

}  // namespace
}  // namespace eclp
