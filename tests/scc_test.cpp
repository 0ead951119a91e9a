#include <gtest/gtest.h>

#include <algorithm>

#include "algos/common.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/transforms.hpp"

namespace eclp::algos::scc {
namespace {

graph::Csr directed(vidx n, const std::vector<graph::Edge>& edges) {
  graph::BuildOptions opt;
  opt.directed = true;
  return graph::from_edges(n, edges, opt);
}

TEST(EclScc, SingleCycleIsOneScc) {
  sim::Device dev;
  const auto g = directed(5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0},
                              {4, 0, 0}});
  const auto res = run(dev, g);
  EXPECT_EQ(res.num_sccs, 1u);
  EXPECT_TRUE(verify(g, res.scc_id));
}

TEST(EclScc, ChainIsAllSingletons) {
  sim::Device dev;
  const auto g = directed(5, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}});
  const auto res = run(dev, g);
  EXPECT_EQ(res.num_sccs, 5u);
  EXPECT_TRUE(verify(g, res.scc_id));
}

TEST(EclScc, TwoCyclesLinkedOneWay) {
  sim::Device dev;
  const auto g = directed(6, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0},   // cycle A
                              {3, 4, 0}, {4, 5, 0}, {5, 3, 0},   // cycle B
                              {2, 3, 0}});                       // A -> B
  const auto res = run(dev, g);
  EXPECT_EQ(res.num_sccs, 2u);
  EXPECT_TRUE(verify(g, res.scc_id));
  EXPECT_EQ(res.scc_id[0], res.scc_id[2]);
  EXPECT_NE(res.scc_id[0], res.scc_id[3]);
}

TEST(EclScc, EmptyEdgeSetAllSingletons) {
  sim::Device dev;
  const auto g = directed(4, {});
  const auto res = run(dev, g);
  EXPECT_EQ(res.num_sccs, 4u);
  EXPECT_TRUE(verify(g, res.scc_id));
}

TEST(EclScc, RejectsUndirectedGraph) {
  sim::Device dev;
  const auto g = graph::from_edges(3, {{0, 1, 0}});
  EXPECT_THROW(run(dev, g), CheckFailure);
}

TEST(TarjanReference, MatchesKnownPartition) {
  const auto g = directed(8, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0},
                              {3, 4, 0}, {4, 3, 0},
                              {2, 3, 0}, {5, 6, 0}});
  const auto scc = reference_scc(g);
  EXPECT_EQ(scc[0], scc[1]);
  EXPECT_EQ(scc[1], scc[2]);
  EXPECT_EQ(scc[3], scc[4]);
  EXPECT_NE(scc[0], scc[3]);
  EXPECT_NE(scc[5], scc[6]);
  EXPECT_NE(scc[6], scc[7]);
}

TEST(EclScc, RandomDirectedGraphsMatchTarjan) {
  for (const u64 seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng(seed);
    std::vector<graph::Edge> edges;
    const vidx n = 300;
    for (int e = 0; e < 900; ++e) {
      edges.push_back({static_cast<vidx>(rng.below(n)),
                       static_cast<vidx>(rng.below(n)), 0});
    }
    const auto g = directed(n, edges);
    sim::Device dev;
    const auto res = run(dev, g);
    EXPECT_TRUE(verify(g, res.scc_id)) << "seed " << seed;
  }
}

TEST(EclScc, SparseRandomDigraphsMatchTarjan) {
  // Sparse digraphs have many nontrivial medium SCCs — the harder regime.
  for (const u64 seed : {7ull, 8ull, 9ull}) {
    Rng rng(seed);
    std::vector<graph::Edge> edges;
    const vidx n = 1000;
    for (int e = 0; e < 1200; ++e) {
      edges.push_back({static_cast<vidx>(rng.below(n)),
                       static_cast<vidx>(rng.below(n)), 0});
    }
    const auto g = directed(n, edges);
    sim::Device dev;
    EXPECT_TRUE(verify(g, run(dev, g).scc_id)) << "seed " << seed;
  }
}

class SccMeshTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SccMeshTest, MatchesTarjanOnMesh) {
  const auto& spec = gen::find_input(GetParam());
  const auto g = spec.make(gen::Scale::kTiny);
  sim::Device dev;
  const auto res = run(dev, g);
  EXPECT_TRUE(verify(g, res.scc_id)) << spec.name;
  EXPECT_GT(res.outer_iterations, 0u);
}

TEST_P(SccMeshTest, BlockSizeDoesNotChangePartition) {
  const auto& spec = gen::find_input(GetParam());
  const auto g = spec.make(gen::Scale::kTiny);
  std::vector<vidx> first;
  for (const u32 tpb : {64u, 256u, 1024u}) {
    sim::Device dev;
    Options opt;
    opt.threads_per_block = tpb;
    auto ids = normalize_labels(run(dev, g, opt).scc_id);
    if (first.empty()) {
      first = std::move(ids);
    } else {
      EXPECT_EQ(first, ids) << spec.name << " tpb " << tpb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeshes, SccMeshTest,
                         ::testing::Values("toroid-wedge", "star",
                                           "toroid-hex", "cold-flow",
                                           "klein-bottle"));

TEST(EclScc, SeriesRecordsEveryPropagationLaunch) {
  const auto g = gen::star_mesh(24, 60, 3);
  sim::Device dev;
  Options opt;
  opt.record_series = true;
  const auto res = run(dev, g, opt);
  // One snapshot per (m, n) pair, n summed over outer rounds.
  u64 total_launches = 0;
  for (const u32 n : res.inner_per_outer) total_launches += n;
  EXPECT_EQ(res.series.size(), total_launches);
  EXPECT_EQ(res.series.max_outer(), res.outer_iterations);
  // Every snapshot covers all blocks of the propagation grid.
  for (const auto& snap : res.series.snapshots()) {
    EXPECT_EQ(snap.per_block.size(), res.series.snapshots()[0].per_block.size());
  }
}

TEST(EclScc, UpdatesDiminishAcrossPropagationIterations) {
  // Paper Figure 1: updates start high and decay, with more inactive blocks
  // in later iterations.
  const auto g = gen::star_mesh(32, 100, 5);
  sim::Device dev;
  Options opt;
  opt.record_series = true;
  const auto res = run(dev, g, opt);
  const auto* first = res.series.find(1, 1);
  ASSERT_NE(first, nullptr);
  const u64 n_max = res.series.max_inner(1);
  ASSERT_GT(n_max, 2u);
  const auto* late = res.series.find(1, n_max - 1);
  ASSERT_NE(late, nullptr);
  const auto sum = [](const profile::BlockSeries::Snapshot& s) {
    u64 t = 0;
    for (const u64 v : s.per_block) t += v;
    return t;
  };
  EXPECT_GT(sum(*first), sum(*late));
  const auto active = [](const profile::BlockSeries::Snapshot& s) {
    usize a = 0;
    for (const u64 v : s.per_block) a += (v > 0);
    return a;
  };
  EXPECT_GE(active(*first), active(*late));
}

TEST(EclScc, SeriesOffByDefault) {
  const auto g = gen::star_mesh(10, 30, 1);
  sim::Device dev;
  EXPECT_EQ(run(dev, g).series.size(), 0u);
}

TEST(EclScc, DeterministicAcrossRuns) {
  const auto g = gen::toroid_wedge(24, 2);
  sim::Device d1, d2;
  const auto a = run(d1, g);
  const auto b = run(d2, g);
  EXPECT_EQ(a.scc_id, b.scc_id);
  EXPECT_EQ(a.modeled_cycles, b.modeled_cycles);
  EXPECT_EQ(a.inner_per_outer, b.inner_per_outer);
}

TEST(EclScc, EdgesPerThreadVariantsAgree) {
  const auto g = gen::cold_flow(32, 4);
  std::vector<vidx> first;
  for (const u32 ept : {1u, 4u, 16u}) {
    sim::Device dev;
    Options opt;
    opt.edges_per_thread = ept;
    auto ids = normalize_labels(run(dev, g, opt).scc_id);
    if (first.empty()) {
      first = std::move(ids);
    } else {
      EXPECT_EQ(first, ids) << "ept " << ept;
    }
  }
}

TEST(EclScc, StarMeshTakesMultipleOuterRounds) {
  const auto g = gen::star_mesh(150, 120, 6);
  sim::Device dev;
  const auto res = run(dev, g);
  // The permuted-chain construction forces record-based peeling (paper: m
  // reached 10 on star).
  EXPECT_GE(res.outer_iterations, 4u);
  EXPECT_TRUE(verify(g, res.scc_id));
}

/// Watches scc_propagate launches. A round's first launch (after
/// scc_init_signatures) runs every thread in its first sweep; a later
/// launch runs only the threads the previous launch left stale. In a
/// launch where every block ran a single sweep, as in the fixed-point
/// launch that closes each round, every executed sweep is a first sweep.
class PropagationObserver : public sim::LaunchObserver {
 public:
  void on_launch(const sim::KernelStats& stats, u64, u64,
                 std::span<const u64>) override {
    if (stats.name == "scc_init_signatures") round_start_ = true;
    if (stats.name != "scc_propagate") return;
    const u64 grid = stats.config.total_threads();
    if (round_start_) {
      round_start_ = false;
      ++first_launches;
      EXPECT_GE(stats.executed_thread_sweeps, grid);
      return;
    }
    const auto& iters = stats.block_inner_iterations;
    if (std::all_of(iters.begin(), iters.end(),
                    [](u64 i) { return i == 1; })) {
      ++single_sweep_launches;
      EXPECT_LT(stats.executed_thread_sweeps, grid);
    }
  }
  u64 first_launches = 0;
  u64 single_sweep_launches = 0;

 private:
  bool round_start_ = false;
};

TEST(EclScc, LaterLaunchesRunOnlyStaleThreadsInTheirFirstSweep) {
  const auto g = gen::find_input("toroid-hex").make(gen::Scale::kTiny);
  sim::Device dev;
  PropagationObserver observer;
  dev.set_launch_observer(&observer);
  const auto res = run(dev, g);
  EXPECT_TRUE(verify(g, res.scc_id));
  EXPECT_EQ(observer.first_launches, res.outer_iterations);
  EXPECT_GT(observer.single_sweep_launches, 0u);
}

}  // namespace
}  // namespace eclp::algos::scc
