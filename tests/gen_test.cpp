#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "gen/suite.hpp"
#include "graph/properties.hpp"
#include "graph/transforms.hpp"

namespace eclp::gen {
namespace {

using graph::Csr;

// --- individual generators -----------------------------------------------------

TEST(Grid2d, TorusHasExactDegreeFour) {
  const auto g = grid2d_torus(16);
  EXPECT_EQ(g.num_vertices(), 256u);
  for (vidx v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_NO_THROW(g.validate());
}

TEST(TriangulatedGrid, DegreesInPlanarRange) {
  const auto g = triangulated_grid(24, 7);
  const auto s = graph::degree_stats(g);
  EXPECT_GE(s.min, 4u);
  EXPECT_LE(s.max, 8u);
  EXPECT_NEAR(s.avg, 6.0, 0.3);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(UniformRandom, EdgeBudgetRoughlyMet) {
  const auto g = uniform_random(1000, 4000, 11);
  // Dedup and self-loop removal lose a little; both directions stored.
  EXPECT_GT(g.num_edges(), 7500u);
  EXPECT_LE(g.num_edges(), 8000u);
  EXPECT_NO_THROW(g.validate());
}

TEST(UniformRandom, DeterministicPerSeed) {
  const auto a = uniform_random(500, 1500, 3);
  const auto b = uniform_random(500, 1500, 3);
  const auto c = uniform_random(500, 1500, 4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Rmat, SkewedDegrees) {
  const auto g = rmat(12, 32768, 0.45, 0.22, 0.22, 9);
  const auto s = graph::degree_stats(g);
  // RMAT should produce hubs far above the average.
  EXPECT_GT(static_cast<double>(s.max), 6.0 * s.avg);
}

TEST(Kronecker, EvenMoreSkewedThanRmat) {
  const auto k = kronecker(12, 32768, 9);
  const auto r = rmat(12, 32768, 0.45, 0.22, 0.22, 9);
  EXPECT_GT(graph::degree_stats(k).max, graph::degree_stats(r).max);
}

TEST(PreferentialAttachment, ConnectedWithHubs) {
  const auto g = preferential_attachment(2000, 4, 13);
  EXPECT_TRUE(graph::is_connected(g));
  const auto s = graph::degree_stats(g);
  EXPECT_GT(s.max, 40u);     // hubs emerge
  EXPECT_NEAR(s.avg, 8.0, 1.5);  // ~2m
}

TEST(InternetTopology, LowAverageLargeHubs) {
  const auto g = internet_topology(4000, 17);
  const auto s = graph::degree_stats(g);
  EXPECT_GT(s.avg, 2.0);
  EXPECT_LT(s.avg, 4.5);
  EXPECT_GT(s.max, 50u);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Citation, NoCitationFractionLeavesHigherIdNeighborsOnly) {
  const auto g = citation(4000, 4.0, 0.35, 19);
  // Vertices whose first (smallest) neighbor is larger than themselves:
  // should be a sizable fraction (the "boundary patents").
  usize no_smaller = 0, with_edges = 0;
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == 0) continue;
    ++with_edges;
    if (g.neighbors(v)[0] > v) ++no_smaller;
  }
  EXPECT_GT(static_cast<double>(no_smaller) / static_cast<double>(with_edges),
            0.15);
}

TEST(RoadNetwork, LowDegreeHighDiameter) {
  const auto g = road_network(40, 0.2, 23);
  const auto s = graph::degree_stats(g);
  EXPECT_TRUE(graph::is_connected(g));  // spanning tree guarantees this
  EXPECT_LT(s.avg, 3.2);
  EXPECT_LE(s.max, 8u);
  // Diameter of a road-like 40x40 grid remnant is large.
  EXPECT_GT(graph::estimate_diameter(g), 40u);
}

TEST(CliqueUnion, DenseAndClustered) {
  const auto g = clique_union(2000, 500, 3, 20, 29);
  const auto s = graph::degree_stats(g);
  EXPECT_GT(s.avg, 4.0);
  EXPECT_NO_THROW(g.validate());
}

TEST(Weblink, HighAverageDegreeWithHubs) {
  const auto g = weblink(4000, 16.0, 31);
  const auto s = graph::degree_stats(g);
  EXPECT_GT(s.avg, 8.0);
  EXPECT_GT(static_cast<double>(s.max), 8.0 * s.avg);
}

TEST(ChungLu, HitsTargetMeanAndTail) {
  const auto g = chung_lu(20000, 8.0, 2.5, 500.0, 7);
  const auto s = graph::degree_stats(g);
  // Dedup + clamping shave the mean; the tail must reach near the cap.
  EXPECT_GT(s.avg, 4.0);
  EXPECT_LT(s.avg, 9.0);
  EXPECT_GT(s.max, 250u);
  EXPECT_LE(s.max, 650u);  // realized degree fluctuates around the cap
  EXPECT_NO_THROW(g.validate());
}

TEST(ChungLu, ExponentControlsSkew) {
  const auto heavy = chung_lu(10000, 6.0, 2.2, 2000.0, 9);
  const auto light = chung_lu(10000, 6.0, 3.5, 2000.0, 9);
  EXPECT_GT(graph::degree_stats(heavy).max,
            2 * graph::degree_stats(light).max);
}

TEST(ChungLu, DeterministicPerSeed) {
  EXPECT_TRUE(chung_lu(3000, 5.0, 2.5, 100.0, 1) ==
              chung_lu(3000, 5.0, 2.5, 100.0, 1));
  EXPECT_FALSE(chung_lu(3000, 5.0, 2.5, 100.0, 1) ==
               chung_lu(3000, 5.0, 2.5, 100.0, 2));
}

// --- meshes ---------------------------------------------------------------------

class MeshTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MeshTest, DirectedValidatedAndDegreeBounded) {
  const auto& spec = find_input(GetParam());
  const auto g = spec.make(Scale::kTiny);
  EXPECT_TRUE(g.directed());
  EXPECT_NO_THROW(g.validate());
  const auto s = graph::degree_stats(g);  // out-degrees
  EXPECT_GT(s.avg, 0.8);
  EXPECT_LT(s.avg, 3.5);
}

INSTANTIATE_TEST_SUITE_P(AllMeshes, MeshTest,
                         ::testing::Values("toroid-wedge", "star",
                                           "toroid-hex", "cold-flow",
                                           "klein-bottle"));

TEST(StarMesh, MostVerticesOutDegreeTwo) {
  // Chorded cycles: d-avg = d-max(out) = 2, the paper's star signature.
  const auto g = star_mesh(20, 50, 3);
  usize deg2 = 0;
  for (vidx v = 0; v < g.num_vertices(); ++v) deg2 += (g.degree(v) == 2);
  EXPECT_GT(static_cast<double>(deg2) / g.num_vertices(), 0.9);
}

// --- suite -----------------------------------------------------------------------

TEST(Suite, HasAllTableOneInputs) {
  EXPECT_EQ(general_inputs().size(), 17u);
  EXPECT_EQ(mesh_inputs().size(), 5u);
}

TEST(Suite, FindByNameWorksAndThrowsOnUnknown) {
  EXPECT_EQ(find_input("europe_osm").name, "europe_osm");
  EXPECT_EQ(find_input("star").name, "star");
  EXPECT_THROW(find_input("no-such-graph"), CheckFailure);
}

TEST(Suite, ScaleParsing) {
  EXPECT_EQ(parse_scale("tiny"), Scale::kTiny);
  EXPECT_EQ(parse_scale("small"), Scale::kSmall);
  EXPECT_EQ(parse_scale("default"), Scale::kDefault);
  EXPECT_EQ(parse_scale("huge"), Scale::kHuge);
  EXPECT_THROW(parse_scale("gigantic"), CheckFailure);
}

TEST(Suite, HugeScaleIsFlaggedOnStreamedEntriesOnly) {
  // Exactly the four entries whose generator family has a streaming port
  // (gen/stream.hpp) advertise scale=huge.
  std::vector<std::string> huge;
  for (const auto& spec : general_inputs()) {
    if (spec.huge) huge.push_back(spec.name);
  }
  for (const auto& spec : mesh_inputs()) {
    if (spec.huge) huge.push_back(spec.name);
  }
  EXPECT_EQ(huge, (std::vector<std::string>{
                      "as-skitter", "kron_g500-logn21", "r4-2e23.sym",
                      "rmat22.sym"}));
  // Entries without a streamed generator reject kHuge loudly instead of
  // silently returning some other scale.
  EXPECT_THROW(find_input("2d-2e20.sym").make(Scale::kHuge), CheckFailure);
}

TEST(Suite, CacheKeyMovedWithTheVersionBump) {
  // Regression pin for the kSuiteCacheVersion bumps: stale .eclg files
  // written by the v1 builder must not alias the new keys. The v1 key for
  // (r4-2e23.sym, tiny) was produced by mixing version 1 with no
  // chunk-stream component; pin the current derivation's output so any
  // accidental revert (or accidental re-keying) fails here.
  graph::CacheKey v1;
  v1.mix("eclp-suite").mix_u64(1).mix("r4-2e23.sym")
      .mix_u64(static_cast<u64>(Scale::kTiny))
      .mix_u64(0xec1900df11e00001ULL);
  EXPECT_NE(suite_cache_key("r4-2e23.sym", Scale::kTiny).hex(), v1.hex());
  // The v3 bump (the families stream at every scale, and the PA sequence
  // moved with kChunkStreamVersion 2) must move the v2 keys too: their
  // tiny..default graphs of six entries are stale.
  graph::CacheKey v2;
  v2.mix("eclp-suite").mix_u64(2 ^ (u64{1} << 32)).mix("r4-2e23.sym")
      .mix_u64(static_cast<u64>(Scale::kTiny))
      .mix_u64(0xec1900df11e00001ULL);
  EXPECT_NE(suite_cache_key("r4-2e23.sym", Scale::kTiny).hex(), v2.hex());
  // The chunk-stream seeding-scheme version participates: a future bump
  // of either component moves every key.
  EXPECT_EQ(suite_cache_version() & 0xffffffffULL, 3u);
  EXPECT_EQ(suite_cache_version() >> 32, 2u);
  // Keys separate by name and by scale (huge included).
  EXPECT_NE(suite_cache_key("r4-2e23.sym", Scale::kTiny).hex(),
            suite_cache_key("rmat22.sym", Scale::kTiny).hex());
  EXPECT_NE(suite_cache_key("r4-2e23.sym", Scale::kHuge).hex(),
            suite_cache_key("r4-2e23.sym", Scale::kDefault).hex());
}

class SuiteInputTest : public ::testing::TestWithParam<usize> {};

TEST_P(SuiteInputTest, TinyInstanceIsValidAndUndirected) {
  const auto& spec = general_inputs()[GetParam()];
  const auto g = spec.make(Scale::kTiny);
  EXPECT_FALSE(g.directed()) << spec.name;
  EXPECT_NO_THROW(g.validate()) << spec.name;
  EXPECT_GT(g.num_vertices(), 1000u) << spec.name;
  EXPECT_GT(g.num_edges(), 0u) << spec.name;
}

TEST_P(SuiteInputTest, GenerationIsDeterministic) {
  const auto& spec = general_inputs()[GetParam()];
  EXPECT_TRUE(spec.make(Scale::kTiny) == spec.make(Scale::kTiny))
      << spec.name;
}

TEST_P(SuiteInputTest, ScalesGrowMonotonically) {
  const auto& spec = general_inputs()[GetParam()];
  EXPECT_LT(spec.make(Scale::kTiny).num_vertices(),
            spec.make(Scale::kSmall).num_vertices())
      << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllGeneral, SuiteInputTest,
                         ::testing::Range<usize>(0, 17));

TEST(Suite, DegreeRegimesMatchPaperClasses) {
  // Road networks must be sparse, clique/weblink graphs dense, grids exact.
  const auto road = find_input("USA-road-d.USA").make(Scale::kTiny);
  const auto dense = find_input("coPapersDBLP").make(Scale::kTiny);
  const auto grid = find_input("2d-2e20.sym").make(Scale::kTiny);
  EXPECT_LT(graph::degree_stats(road).avg, 3.5);
  EXPECT_GT(graph::degree_stats(dense).avg, 15.0);
  EXPECT_EQ(graph::degree_stats(grid).max, 4u);
}

}  // namespace
}  // namespace eclp::gen
