// Coverage of the algorithm option combinations the benches rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "algos/cc/ecl_cc.hpp"
#include "algos/common.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/transforms.hpp"
#include "support/check.hpp"

namespace eclp::algos {
namespace {

// --- CC init modes ---------------------------------------------------------------

TEST(CcOptions, OwnIdInitStillCorrect) {
  const auto g = gen::rmat(12, 16000, 0.45, 0.22, 0.22, 3);
  sim::Device dev;
  cc::Options opt;
  opt.init_mode = cc::InitMode::kOwnId;
  const auto res = cc::run(dev, g, opt);
  EXPECT_TRUE(cc::verify(g, res.labels));
  // Own-id init does not scan adjacency at all.
  EXPECT_EQ(res.profile.init_neighbors_traversed, 0u);
}

TEST(CcOptions, HeuristicInitReducesHooks) {
  const auto g = gen::uniform_random(8000, 32000, 5);
  sim::Device d1, d2;
  cc::Options naive;
  naive.init_mode = cc::InitMode::kOwnId;
  const auto own = cc::run(d1, g, naive);
  const auto heuristic = cc::run(d2, g);
  EXPECT_LT(heuristic.profile.hook_attempts, own.profile.hook_attempts);
  EXPECT_EQ(normalize_labels(own.labels), normalize_labels(heuristic.labels));
}

TEST(CcOptions, PerVertexTraversalsMatchAggregate) {
  const auto g = gen::citation(6000, 4.0, 0.3, 7);
  sim::Device dev;
  cc::Options opt;
  opt.record_per_vertex_traversals = true;
  const auto res = cc::run(dev, g, opt);
  u64 total = 0;
  for (const u64 t : res.init_traversal_per_vertex) total += t;
  EXPECT_EQ(total, res.profile.init_neighbors_traversed);
}

TEST(CcOptions, PerVertexTraversalsAreBimodal) {
  // Paper §6.1.3: either 1 (first neighbor smaller) or the full degree.
  const auto g = gen::uniform_random(5000, 20000, 9);
  sim::Device dev;
  cc::Options opt;
  opt.record_per_vertex_traversals = true;
  const auto res = cc::run(dev, g, opt);
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    const u64 t = res.init_traversal_per_vertex[v];
    if (g.degree(v) == 0) {
      EXPECT_EQ(t, 0u);
    } else {
      EXPECT_TRUE(t == 1 || t == g.degree(v))
          << "vertex " << v << " traversed " << t << " of degree "
          << g.degree(v);
    }
  }
}

TEST(CcOptions, RecordingOffLeavesVectorEmpty) {
  const auto g = gen::grid2d_torus(16);
  sim::Device dev;
  EXPECT_TRUE(cc::run(dev, g).init_traversal_per_vertex.empty());
}

// --- GC shortcuts ------------------------------------------------------------------

TEST(GcOptions, StrictJpStillProper) {
  const auto g = gen::preferential_attachment(3000, 4, 11);
  sim::Device dev;
  gc::Options opt;
  opt.use_shortcuts = false;
  const auto res = gc::run(dev, g, opt);
  EXPECT_TRUE(gc::verify(g, res.colors));
  EXPECT_EQ(res.shortcut1_colorings, 0u);
  EXPECT_EQ(res.shortcut2_removals, 0u);
}

TEST(GcOptions, ShortcutsReduceRounds) {
  const auto g = gen::kronecker(11, 18000, 13);
  sim::Device d1, d2;
  gc::Options strict;
  strict.use_shortcuts = false;
  const auto jp = gc::run(d1, g, strict);
  const auto ecl = gc::run(d2, g);
  EXPECT_LT(ecl.host_iterations, jp.host_iterations);
}

TEST(GcOptions, ShortcutsPreserveColorCount) {
  // Shortcut 1 assigns the same color the vertex would eventually take, so
  // the coloring quality is unchanged (the ECL-GC paper's key claim).
  const auto g = gen::clique_union(2000, 600, 3, 20, 17);
  sim::Device d1, d2;
  gc::Options strict;
  strict.use_shortcuts = false;
  EXPECT_EQ(gc::run(d1, g, strict).num_colors, gc::run(d2, g).num_colors);
}

// --- SCC options --------------------------------------------------------------------

TEST(SccOptions, EdgesPerThreadAffectsCostNotResult) {
  const auto g = gen::toroid_wedge(48, 3);
  u64 prev_cycles = 0;
  usize sccs = 0;
  for (const u32 ept : {1u, 8u}) {
    sim::Device dev;
    scc::Options opt;
    opt.edges_per_thread = ept;
    const auto res = scc::run(dev, g, opt);
    if (sccs == 0) sccs = res.num_sccs;
    EXPECT_EQ(res.num_sccs, sccs);
    if (prev_cycles != 0) {
      EXPECT_NE(res.modeled_cycles, prev_cycles);
    }
    prev_cycles = res.modeled_cycles;
  }
}

TEST(SccOptions, TrimSettlesAcyclicVerticesAndMatches) {
  for (const char* name : {"cold-flow", "star", "toroid-wedge"}) {
    const auto g = gen::find_input(name).make(gen::Scale::kTiny);
    sim::Device d1, d2;
    scc::Options base, trimmed;
    trimmed.trim = true;
    const auto a = scc::run(d1, g, base);
    const auto b = scc::run(d2, g, trimmed);
    EXPECT_EQ(normalize_labels(a.scc_id), normalize_labels(b.scc_id)) << name;
    EXPECT_TRUE(scc::verify(g, b.scc_id)) << name;
  }
}

TEST(SccOptions, TrimResolvesPureChainWithoutPropagation) {
  graph::BuildOptions dopt;
  dopt.directed = true;
  const auto g = graph::from_edges(
      6, {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 5, 0}}, dopt);
  sim::Device dev;
  scc::Options opt;
  opt.trim = true;
  const auto res = scc::run(dev, g, opt);
  EXPECT_EQ(res.trimmed_vertices, 6u);
  EXPECT_EQ(res.num_sccs, 6u);
  EXPECT_TRUE(scc::verify(g, res.scc_id));
}

TEST(SccOptions, TrimOnRandomDigraphsMatchesTarjan) {
  for (const u64 seed : {31ull, 32ull, 33ull}) {
    Rng rng(seed);
    std::vector<graph::Edge> edges;
    const vidx n = 500;
    for (int e = 0; e < 800; ++e) {
      edges.push_back({static_cast<vidx>(rng.below(n)),
                       static_cast<vidx>(rng.below(n)), 0});
    }
    graph::BuildOptions dopt;
    dopt.directed = true;
    const auto g = graph::from_edges(n, edges, dopt);
    sim::Device dev;
    scc::Options opt;
    opt.trim = true;
    EXPECT_TRUE(scc::verify(g, scc::run(dev, g, opt).scc_id))
        << "seed " << seed;
  }
}

// --- MIS options --------------------------------------------------------------------

TEST(MisOptions, QuantumScalesIterations) {
  const auto g = gen::uniform_random(20000, 60000, 21);
  sim::Device d1, d2;
  mis::Options small_q, big_q;
  small_q.quantum = 8;
  big_q.quantum = 256;
  const auto a = mis::run(d1, g, small_q);
  const auto b = mis::run(d2, g, big_q);
  EXPECT_TRUE(mis::verify(g, a.status));
  EXPECT_TRUE(mis::verify(g, b.status));
  // More spinning per round => more counted iterations.
  EXPECT_GT(b.metrics.iterations.mean, a.metrics.iterations.mean);
}

TEST(MisOptions, ResultIndependentOfVisibilityAndPacing) {
  // ECL-MIS is deterministic in its final result (paper §3): the priority
  // order fully determines the set, whatever the schedule or pacing.
  const auto g = gen::preferential_attachment(6000, 5, 23);
  sim::DeviceVector<u8> first;
  for (const auto vis :
       {mis::Visibility::kImmediate, mis::Visibility::kRoundSnapshot}) {
    for (const u64 q : {0ull, 48ull, 512ull}) {
      sim::Device dev;
      mis::Options opt;
      opt.visibility = vis;
      opt.quantum = q;
      auto res = mis::run(dev, g, opt);
      if (first.empty()) {
        first = std::move(res.status);
      } else {
        EXPECT_EQ(res.status, first);
      }
    }
  }
}

TEST(MisOptions, AllPriorityModesProduceValidSets) {
  const auto g = gen::internet_topology(8000, 41);
  for (const auto mode : {mis::Priority::kDegreeAware,
                          mis::Priority::kUniformHash,
                          mis::Priority::kVertexId}) {
    sim::Device dev;
    mis::Options opt;
    opt.priority = mode;
    const auto res = mis::run(dev, g, opt);
    EXPECT_TRUE(mis::verify(g, res.status))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(MisOptions, DegreeAwarePriorityGrowsTheSet) {
  // The purpose of ECL-MIS's priority function (paper §2.3): favoring
  // low-degree vertices boosts the MIS size on skewed-degree inputs.
  const auto g = gen::preferential_attachment(20000, 6, 43);
  sim::Device d1, d2;
  mis::Options aware, uniform;
  uniform.priority = mis::Priority::kUniformHash;
  const auto a = mis::run(d1, g, aware);
  const auto b = mis::run(d2, g, uniform);
  EXPECT_GT(a.set_size, b.set_size);
}

// --- MST options --------------------------------------------------------------------

TEST(MstOptions, FilterPercentileSweepKeepsWeight) {
  const auto g = graph::with_random_weights(
      gen::clique_union(1500, 700, 2, 9, 27), 27);
  const u64 want = mst::reference_total_weight(g);
  for (const double pct : {0.0, 25.0, 50.0, 75.0, 90.0}) {
    sim::Device dev;
    mst::Options opt;
    opt.filter_percentile = pct;
    EXPECT_EQ(mst::run(dev, g, opt).total_weight, want) << "pct " << pct;
  }
}

TEST(MstOptions, FilterPercentileOutsideRangeIsRejected) {
  const auto g =
      graph::with_random_weights(gen::uniform_random(500, 2000, 31), 31);
  for (const double pct : {std::nan(""), -1.0, 100.5}) {
    sim::Device dev;
    mst::Options opt;
    opt.filter_percentile = pct;
    try {
      mst::run(dev, g, opt);
      ADD_FAILURE() << "pct " << pct << " accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("filter_percentile"),
                std::string::npos)
          << e.what();
    }
  }
  // Both ends of the range are valid: 0 turns the filter step off, 100
  // puts every edge on the light worklist.
  const u64 want = mst::reference_total_weight(g);
  for (const double pct : {0.0, 100.0}) {
    sim::Device dev;
    mst::Options opt;
    opt.filter_percentile = pct;
    EXPECT_EQ(mst::run(dev, g, opt).total_weight, want) << "pct " << pct;
  }
}

TEST(MstOptions, HostIterationsCountEveryRound) {
  const auto g = graph::with_random_weights(
      gen::clique_union(1500, 700, 2, 9, 27), 27);
  sim::Device plain_dev, recorded_dev;
  mst::Options recorded;
  recorded.record_iteration_metrics = true;
  const auto plain = mst::run(plain_dev, g);
  const auto rec = mst::run(recorded_dev, g, recorded);
  EXPECT_TRUE(plain.iterations.empty());
  EXPECT_GT(plain.host_iterations, 1u);
  EXPECT_EQ(plain.host_iterations, rec.iterations.size());
  EXPECT_EQ(rec.host_iterations, rec.iterations.size());
  EXPECT_EQ(plain.modeled_cycles, rec.modeled_cycles);
}

TEST(MstOptions, ThreadsPerBlockSweepKeepsWeight) {
  const auto g =
      graph::with_random_weights(gen::uniform_random(2000, 8000, 29), 29);
  const u64 want = mst::reference_total_weight(g);
  for (const u32 tpb : {32u, 128u, 1024u}) {
    sim::Device dev;
    mst::Options opt;
    opt.threads_per_block = tpb;
    EXPECT_EQ(mst::run(dev, g, opt).total_weight, want) << "tpb " << tpb;
  }
}

}  // namespace
}  // namespace eclp::algos
