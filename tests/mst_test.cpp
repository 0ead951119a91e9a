// ECL-MST correctness, Figure-2 metrics, and the pinned light/heavy split.
//
// Regenerate the split golden after an *intentional* modeling change:
//   ECLP_UPDATE_GOLDEN=1 ./eclp_tests --gtest_filter='EclMst.SplitPinned'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/mst/ecl_mst.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/transforms.hpp"

namespace eclp::algos::mst {
namespace {

graph::Csr weighted(const graph::Csr& g, u64 seed = 7) {
  return graph::with_random_weights(g, seed);
}

graph::Csr small_weighted_fixture() {
  graph::BuildOptions opt;
  opt.weighted = true;
  // Classic CLRS-style example with a unique MST of weight 4+8+7+9+2+4+1+2=37.
  return graph::from_edges(
      9,
      {{0, 1, 4}, {0, 7, 8}, {1, 7, 11}, {1, 2, 8}, {7, 8, 7}, {7, 6, 1},
       {2, 8, 2}, {8, 6, 6}, {2, 3, 7}, {2, 5, 4}, {6, 5, 2}, {3, 5, 14},
       {3, 4, 9}, {5, 4, 10}},
      opt);
}

TEST(EclMst, KnownFixtureWeight) {
  sim::Device dev;
  const auto g = small_weighted_fixture();
  const auto res = run(dev, g);
  EXPECT_EQ(res.total_weight, 37u);
  EXPECT_EQ(res.mst_edges, 8u);
  EXPECT_TRUE(verify(g, res));
}

TEST(EclMst, MatchesKruskalOnRandomGraphs) {
  for (const u64 seed : {1ull, 2ull, 3ull, 4ull}) {
    sim::Device dev;
    const auto g = weighted(gen::uniform_random(2000, 6000, seed), seed);
    const auto res = run(dev, g);
    EXPECT_EQ(res.total_weight, reference_total_weight(g)) << "seed " << seed;
    EXPECT_TRUE(verify(g, res)) << "seed " << seed;
  }
}

TEST(EclMst, SpanningForestOnDisconnectedInput) {
  graph::BuildOptions opt;
  opt.weighted = true;
  const auto g = graph::from_edges(
      6, {{0, 1, 5}, {1, 2, 3}, {3, 4, 2}}, opt);  // vertex 5 isolated
  sim::Device dev;
  const auto res = run(dev, g);
  EXPECT_EQ(res.mst_edges, 3u);
  EXPECT_EQ(res.total_weight, 10u);
  EXPECT_TRUE(verify(g, res));
}

TEST(EclMst, EmptyEdgeSet) {
  graph::BuildOptions opt;
  opt.weighted = true;
  const auto g = graph::from_edges(4, {}, opt);
  sim::Device dev;
  const auto res = run(dev, g);
  EXPECT_EQ(res.mst_edges, 0u);
  EXPECT_EQ(res.total_weight, 0u);
}

TEST(EclMst, DuplicateWeightsResolvedConsistently) {
  // All weights equal: any spanning tree is minimal; the result must still
  // be a spanning forest of n-1 edges with the right total.
  graph::BuildOptions opt;
  opt.weighted = true;
  std::vector<graph::Edge> edges;
  for (vidx u = 0; u < 30; ++u) {
    for (vidx v = u + 1; v < 30; ++v) edges.push_back({u, v, 5});
  }
  const auto g = graph::from_edges(30, edges, opt);
  sim::Device dev;
  const auto res = run(dev, g);
  EXPECT_EQ(res.mst_edges, 29u);
  EXPECT_EQ(res.total_weight, 29u * 5u);
  EXPECT_TRUE(verify(g, res));
}

TEST(EclMst, CorrectedLaunchSameResult) {
  const auto g = weighted(gen::preferential_attachment(3000, 4, 11), 11);
  sim::Device d1, d2;
  Options original;
  Options corrected;
  corrected.corrected_launch = true;
  const auto a = run(d1, g, original);
  const auto b = run(d2, g, corrected);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.mst_edges, b.mst_edges);
}

TEST(EclMst, FilterDisabledStillCorrect) {
  const auto g = weighted(gen::uniform_random(1500, 5000, 13), 13);
  sim::Device dev;
  Options opt;
  opt.filter_percentile = 0.0;
  const auto res = run(dev, g, opt);
  EXPECT_EQ(res.total_weight, reference_total_weight(g));
}

TEST(EclMst, IterationMetricsRecordedWhenAsked) {
  const auto g = weighted(gen::clique_union(2000, 900, 2, 7, 3), 3);
  sim::Device dev;
  Options opt;
  opt.record_iteration_metrics = true;
  const auto res = run(dev, g, opt);
  ASSERT_GT(res.iterations.size(), 2u);
  for (const auto& it : res.iterations) {
    EXPECT_TRUE(it.kind == "Regular" || it.kind == "Filter");
    EXPECT_LE(it.threads_with_work, it.launched_threads);
    EXPECT_LE(it.useless_atomics, it.atomic_attempts);
    EXPECT_GE(it.pct_with_work(), 0.0);
    EXPECT_LE(it.pct_with_work(), 100.0);
    EXPECT_LE(it.pct_conflicting(), 100.0);
    EXPECT_LE(it.pct_useless_atomics(), 100.0);
  }
  // Regular iterations precede filter iterations.
  bool seen_filter = false;
  for (const auto& it : res.iterations) {
    if (it.kind == "Filter") seen_filter = true;
    if (seen_filter) {
      EXPECT_EQ(it.kind, "Filter");
    }
  }
}

TEST(EclMst, MetricsOffByDefaultLeavesVectorEmpty) {
  const auto g = weighted(gen::grid2d_torus(24), 9);
  sim::Device dev;
  EXPECT_TRUE(run(dev, g).iterations.empty());
}

TEST(EclMst, WorkFractionDropsAcrossIterations) {
  // Paper Figure 2: after the first iteration of each kind, the fraction of
  // threads with work is low.
  const auto g = weighted(gen::clique_union(3000, 1500, 2, 7, 5), 5);
  sim::Device dev;
  Options opt;
  opt.record_iteration_metrics = true;
  const auto res = run(dev, g, opt);
  ASSERT_GE(res.iterations.size(), 3u);
  const auto& first = res.iterations.front();
  double later_max = 0;
  for (usize i = 2; i < res.iterations.size(); ++i) {
    if (res.iterations[i].kind == "Regular") {
      later_max = std::max(later_max, res.iterations[i].pct_with_work());
    }
  }
  EXPECT_GT(first.pct_with_work(), later_max);
}

TEST(EclMst, UselessAtomicsRiseAcrossRegularIterations) {
  // Paper §6.1.4: "The percentage of failed atomics increases with the
  // iteration count."
  const auto g = weighted(gen::uniform_random(20000, 60000, 17), 17);
  sim::Device dev;
  Options opt;
  opt.record_iteration_metrics = true;
  const auto res = run(dev, g, opt);
  std::vector<double> regular;
  for (const auto& it : res.iterations) {
    if (it.kind == "Regular" && it.atomic_attempts > 100) {
      regular.push_back(it.pct_useless_atomics());
    }
  }
  ASSERT_GE(regular.size(), 2u);
  EXPECT_GT(regular.back(), regular.front());
}

TEST(EclMst, CorrectedLaunchChargesHostOps) {
  const auto g = weighted(gen::grid2d_torus(32), 21);
  sim::Device d1, d2;
  Options original;
  Options corrected;
  corrected.corrected_launch = true;
  run(d1, g, original);
  run(d2, g, corrected);
  // Same kernel count, but the corrected variant pays for size readbacks.
  EXPECT_EQ(d1.kernel_launches(), d2.kernel_launches());
}

TEST(EclMst, UniqueEdgesDeterministicAndHalved) {
  const auto g = weighted(gen::uniform_random(500, 2000, 23), 23);
  const auto e1 = unique_edges(g);
  const auto e2 = unique_edges(g);
  EXPECT_EQ(e1.size(), g.num_edges() / 2);
  ASSERT_EQ(e1.size(), e2.size());
  for (usize i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].u, e2[i].u);
    EXPECT_EQ(e1[i].v, e2[i].v);
    EXPECT_LT(e1[i].u, e1[i].v);
  }
}

TEST(EclMst, RequiresWeights) {
  sim::Device dev;
  const auto g = gen::grid2d_torus(8);  // unweighted
  EXPECT_THROW(run(dev, g), CheckFailure);
}

class MstSuiteTest : public ::testing::TestWithParam<usize> {};

TEST_P(MstSuiteTest, MatchesKruskalOnSuiteInput) {
  const auto& spec = gen::general_inputs()[GetParam()];
  const auto g = weighted(spec.make(gen::Scale::kTiny), GetParam());
  sim::Device dev;
  const auto res = run(dev, g);
  EXPECT_EQ(res.total_weight, reference_total_weight(g)) << spec.name;
  EXPECT_TRUE(verify(g, res)) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllInputs, MstSuiteTest,
                         ::testing::Range<usize>(0, 17));

// --- pinned light/heavy split ------------------------------------------------

/// One line per (graph, schedule, filter percentile): every modeled number
/// the split threshold reaches. Weights in [1, 4] make the threshold land on
/// long runs of ties, where an off-by-one rank would move edges between the
/// light and heavy worklists.
std::vector<std::string> split_lines() {
  const std::pair<const char*, graph::Csr> graphs[] = {
      {"uniform", graph::with_random_weights(
                      gen::uniform_random(3000, 12000, 41), 41, 4)},
      {"clique-union", graph::with_random_weights(
                           gen::clique_union(1500, 700, 2, 9, 27), 27, 4)},
  };
  std::vector<std::string> lines;
  for (const auto& [name, g] : graphs) {
    for (const u64 seed : {u64{0}, u64{12345}}) {
      for (const double pct : {0.0, 25.0, 50.0, 90.0, 100.0}) {
        sim::Device dev(sim::CostModel{}, seed,
                        seed == 0 ? sim::ScheduleMode::kDeterministic
                                  : sim::ScheduleMode::kShuffled);
        Options opt;
        opt.filter_percentile = pct;
        opt.record_iteration_metrics = true;
        const auto res = run(dev, g, opt);
        u64 regular = 0, filter = 0;
        for (const auto& it : res.iterations) {
          (it.kind == "Filter" ? filter : regular)++;
        }
        u64 digest = 0xcbf29ce484222325ULL;  // FNV-1a over the in_mst flags
        for (const u8 f : res.in_mst) digest = (digest ^ f) * 0x100000001b3ULL;
        std::ostringstream os;
        os << name << " seed=" << seed << " pct=" << pct
           << " cycles=" << dev.total_cycles()
           << " modeled=" << res.modeled_cycles
           << " launches=" << dev.kernel_launches();
        for (usize o = 0; o < static_cast<usize>(sim::AtomicOutcome::kCount_);
             ++o) {
          os << " atomic" << o << '='
             << dev.atomic_stats().count(static_cast<sim::AtomicOutcome>(o));
        }
        os << " regular=" << regular << " filter=" << filter
           << " weight=" << res.total_weight << " edges=" << res.mst_edges
           << " in_mst=" << digest;
        lines.push_back(os.str());
      }
    }
  }
  return lines;
}

TEST(EclMst, SplitPinned) {
  const std::string path = std::string(ECLP_GOLDEN_DIR) + "/mst_split.txt";
  const auto lines = split_lines();
  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << "# Golden ECL-MST runs across filter percentiles on tie-heavy "
          "weights (1..4).\n"
          "# Regenerate: ECLP_UPDATE_GOLDEN=1 ./eclp_tests "
          "--gtest_filter='EclMst.SplitPinned'\n";
    for (const auto& line : lines) os << line << '\n';
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path
                  << " (regenerate with ECLP_UPDATE_GOLDEN=1)";
  std::vector<std::string> golden;
  for (std::string line; std::getline(is, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  EXPECT_EQ(lines, golden) << "ECL-MST split results drifted from " << path;
}

}  // namespace
}  // namespace eclp::algos::mst
