// Microbenchmarks (google-benchmark) for the substrate the reproductions
// stand on: simulator launch/atomic throughput, profiling counter cost,
// graph construction, and the sequential references. These guard against
// performance regressions in the simulator itself — the table benches
// depend on it being fast enough to run the full suite.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "algos/cc/ecl_cc.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "graph/builder.hpp"
#include "graph/properties.hpp"
#include "graph/transforms.hpp"
#include "profile/counters.hpp"
#include "profile/session.hpp"
#include "sim/device.hpp"
#include "support/pool.hpp"

namespace {

using namespace eclp;

void BM_SimLaunchOverhead(benchmark::State& state) {
  sim::Device dev;
  for (auto _ : state) {
    dev.launch("noop", {1, 32}, [](sim::ThreadCtx&) {});
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_SimLaunchOverhead);

void BM_SimThreadDispatch(benchmark::State& state) {
  sim::Device dev;
  const u32 threads = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    dev.launch("dispatch", {threads / 256, 256},
               [](sim::ThreadCtx& ctx) { ctx.charge_alu(1); });
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * threads);
}
BENCHMARK(BM_SimThreadDispatch)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_SimAtomicCas(benchmark::State& state) {
  sim::Device dev;
  u32 target = 0;
  for (auto _ : state) {
    dev.launch("cas", {1, 256}, [&](sim::ThreadCtx& ctx) {
      for (int i = 0; i < 16; ++i) {
        const u32 old = target;
        ctx.atomic_cas(target, old, old + 1);
      }
    });
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 256 * 16);
}
BENCHMARK(BM_SimAtomicCas);

// --- profiling session overhead ----------------------------------------------
// The observability contract (docs/OBSERVABILITY.md): with no session
// attached a launch pays one null check and a ScopedSpan annotation one
// thread-local load — compare against BM_SimLaunchOverhead and
// BM_ScopedSpanNoSession. With a session attached every launch records a
// closed kernel span and every annotation opens/closes a phase span; the
// batch variants below amortize session setup and bound the span log.

void BM_ScopedSpanNoSession(benchmark::State& state) {
  for (auto _ : state) {
    profile::ScopedSpan span("phase");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_ScopedSpanNoSession);

void BM_SessionAttachedLaunch(benchmark::State& state) {
  sim::Device dev;
  constexpr u32 kBatch = 256;
  for (auto _ : state) {
    profile::Session session(dev);
    for (u32 i = 0; i < kBatch; ++i) {
      dev.launch("noop", {1, 32}, [](sim::ThreadCtx&) {});
    }
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kBatch);
}
BENCHMARK(BM_SessionAttachedLaunch);

void BM_SessionSpanRecording(benchmark::State& state) {
  sim::Device dev;
  constexpr u32 kBatch = 1024;
  for (auto _ : state) {
    profile::Session session(dev);
    for (u32 i = 0; i < kBatch; ++i) {
      profile::ScopedSpan span("phase");
    }
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kBatch);
}
BENCHMARK(BM_SessionSpanRecording);

void BM_CounterPerThreadInc(benchmark::State& state) {
  profile::PerThreadCounter counter(1u << 16);
  u32 i = 0;
  for (auto _ : state) {
    counter.inc(i++ & 0xffff);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CounterPerThreadInc);

void BM_GraphBuildCsr(benchmark::State& state) {
  const vidx n = static_cast<vidx>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::uniform_random(n, n * 4, 7));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * n * 4);
}
BENCHMARK(BM_GraphBuildCsr)->Arg(1 << 12)->Arg(1 << 15);

void BM_GraphBfs(benchmark::State& state) {
  const auto g = gen::grid2d_torus(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_distances(g, 0));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_GraphBfs);

void BM_EclCcEndToEnd(benchmark::State& state) {
  const auto g = gen::rmat(13, 60000, 0.45, 0.22, 0.22, 5);
  for (auto _ : state) {
    sim::Device dev;
    benchmark::DoNotOptimize(algos::cc::run(dev, g));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_EclCcEndToEnd);

void BM_EclMstEndToEnd(benchmark::State& state) {
  const auto g =
      graph::with_random_weights(gen::uniform_random(10000, 40000, 9), 9);
  for (auto _ : state) {
    sim::Device dev;
    benchmark::DoNotOptimize(algos::mst::run(dev, g));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_EclMstEndToEnd);

void BM_EclSccEndToEnd(benchmark::State& state) {
  const auto g = gen::cold_flow(64, 3);
  for (auto _ : state) {
    sim::Device dev;
    benchmark::DoNotOptimize(algos::scc::run(dev, g));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_EclSccEndToEnd);

// --- parallel scaling --------------------------------------------------------
// Block-parallel dispatch of block-independent launches across the host
// pool. The interesting numbers are the 1-worker run (must not regress
// against the pre-pool sequential path) and the speedup at 2/4/8 workers;
// on a single-core machine the >1-worker rows only measure scheduling
// overhead. Results are bit-identical at every worker count by design —
// these benches measure wall clock only.

/// A launch shaped like SCC propagation's per-block sweep loop: every
/// thread scans an edge stripe and does Jacobi-style buffered updates.
void BM_PoolScalingSccPropagate(benchmark::State& state) {
  const u32 workers = static_cast<u32>(state.range(0));
  Pool pool(workers);
  const auto g = gen::cold_flow(96, 3);
  for (auto _ : state) {
    sim::Device dev;
    dev.set_pool(workers > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(algos::scc::run(dev, g));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_PoolScalingSccPropagate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// A pure compute-heavy block-independent map, the best case for scaling.
void BM_PoolScalingMapKernel(benchmark::State& state) {
  const u32 workers = static_cast<u32>(state.range(0));
  Pool pool(workers);
  sim::LaunchConfig cfg{64, 256};
  cfg.block_independent = true;
  for (auto _ : state) {
    sim::Device dev;
    dev.set_pool(workers > 1 ? &pool : nullptr);
    dev.launch("map", cfg, [](sim::ThreadCtx& ctx) {
      u64 acc = ctx.global_id();
      for (int i = 0; i < 64; ++i) acc = acc * 6364136223846793005ULL + 1;
      benchmark::DoNotOptimize(acc);
      ctx.charge_alu(64);
    });
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          cfg.total_threads());
}
BENCHMARK(BM_PoolScalingMapKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_TarjanReference(benchmark::State& state) {
  const auto g = gen::klein_bottle(64, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algos::scc::reference_scc(g));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_TarjanReference);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): accept the suite-wide
// `--json <path>` / `--json=<path>` convention (harness/harness.hpp) by
// translating it to google-benchmark's --benchmark_out flags, so
//   bench_micro_substrate --json BENCH_micro_substrate.json
// emits the same machine-readable perf-trajectory artifact as the
// table benches. All other flags pass through to google-benchmark.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  translated.reserve(args.size() + 1);
  for (usize i = 0; i < args.size(); ++i) {
    std::string path;
    if (args[i] == "--json" && i + 1 < args.size()) {
      path = args[++i];
    } else if (args[i].rfind("--json=", 0) == 0) {
      path = args[i].substr(std::strlen("--json="));
    } else {
      translated.push_back(args[i]);
      continue;
    }
    translated.push_back("--benchmark_out=" + path);
    translated.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargs;
  cargs.reserve(translated.size());
  for (std::string& a : translated) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
