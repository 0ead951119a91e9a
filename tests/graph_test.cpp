#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/properties.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"

namespace eclp::graph {
namespace {

Csr triangle() {
  return from_edges(3, {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}});
}

Csr path(vidx n) {
  std::vector<Edge> edges;
  for (vidx v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 0});
  return from_edges(n, edges);
}

// --- Csr ---------------------------------------------------------------------

TEST(Csr, EmptyGraph) {
  Csr g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Csr, FromPartsRejectsBadOffsets) {
  EXPECT_THROW(Csr::from_parts(2, {0, 1}, {0}), CheckFailure);   // n+1 size
  EXPECT_THROW(Csr::from_parts(2, {0, 1, 3}, {0}), CheckFailure);  // back
}

TEST(Csr, FromPartsRejectsWeightMismatch) {
  EXPECT_THROW(Csr::from_parts(2, {0, 1, 2}, {1, 0}, {5}), CheckFailure);
}

TEST(Csr, TriangleBasics) {
  const auto g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);  // both directions stored
  EXPECT_FALSE(g.directed());
  EXPECT_FALSE(g.weighted());
  for (vidx v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Csr, NeighborsAreSorted) {
  const auto g = from_edges(5, {{4, 0, 0}, {2, 0, 0}, {3, 0, 0}, {1, 0, 0}});
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Csr, ValidateCatchesAsymmetry) {
  // Hand-built: arc 0->1 without 1->0 but flagged undirected.
  auto g = Csr::from_parts(2, {0, 1, 1}, {1}, {}, /*directed=*/false);
  EXPECT_THROW(g.validate(), CheckFailure);
}

TEST(Csr, ValidateAcceptsDirectedAsymmetry) {
  auto g = Csr::from_parts(2, {0, 1, 1}, {1}, {}, /*directed=*/true);
  EXPECT_NO_THROW(g.validate());
}

TEST(Csr, DegreeStatsOfTriangle) {
  const auto s = degree_stats(triangle());
  EXPECT_DOUBLE_EQ(s.avg, 2.0);
  EXPECT_EQ(s.max, 2u);
  EXPECT_EQ(s.min, 2u);
}

// --- Builder -----------------------------------------------------------------

TEST(Builder, RemovesSelfLoopsByDefault) {
  const auto g = from_edges(3, {{0, 0, 0}, {0, 1, 0}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Builder, DedupesParallelEdges) {
  const auto g = from_edges(2, {{0, 1, 0}, {0, 1, 0}, {1, 0, 0}});
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, KeepsParallelEdgesWhenAsked) {
  BuildOptions opt;
  opt.dedupe = false;
  const auto g = from_edges(2, {{0, 1, 0}, {0, 1, 0}}, opt);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Builder, DirectedKeepsArcDirection) {
  BuildOptions opt;
  opt.directed = true;
  const auto g = from_edges(3, {{0, 1, 0}, {1, 2, 0}}, opt);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_TRUE(g.directed());
}

TEST(Builder, WeightsFollowEdges) {
  BuildOptions opt;
  opt.weighted = true;
  const auto g = from_edges(2, {{0, 1, 77}}, opt);
  ASSERT_TRUE(g.weighted());
  EXPECT_EQ(g.weights_of(0)[0], 77u);
  EXPECT_EQ(g.weights_of(1)[0], 77u);  // mirrored arc carries same weight
}

TEST(Builder, OutOfRangeEdgeThrows) {
  Builder b(2);
  EXPECT_THROW(b.add(0, 5), CheckFailure);
}

TEST(Builder, EmptyGraphBuilds) {
  Builder b(4);
  const auto g = b.build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_NO_THROW(g.validate());
}

// --- transforms ---------------------------------------------------------------

TEST(Transforms, TransposeReversesArcs) {
  BuildOptions opt;
  opt.directed = true;
  const auto g = from_edges(3, {{0, 1, 0}, {1, 2, 0}}, opt);
  const auto t = transpose(g);
  EXPECT_EQ(t.degree(1), 1u);
  EXPECT_EQ(t.neighbors(1)[0], 0u);
  EXPECT_EQ(t.degree(0), 0u);
  EXPECT_EQ(t.num_edges(), g.num_edges());
}

TEST(Transforms, TransposeTwiceIsIdentity) {
  BuildOptions opt;
  opt.directed = true;
  const auto g = from_edges(4, {{0, 1, 0}, {1, 2, 0}, {3, 0, 0}}, opt);
  const auto tt = transpose(transpose(g));
  EXPECT_EQ(tt.col_indices().size(), g.col_indices().size());
  for (vidx v = 0; v < 4; ++v) {
    const auto a = g.neighbors(v), b = tt.neighbors(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(Transforms, SymmetrizeMakesUndirected) {
  BuildOptions opt;
  opt.directed = true;
  const auto g = from_edges(3, {{0, 1, 0}, {1, 2, 0}}, opt);
  const auto s = symmetrize(g);
  EXPECT_FALSE(s.directed());
  EXPECT_TRUE(is_symmetric(s));
  EXPECT_EQ(s.num_edges(), 4u);
}

TEST(Transforms, RelabelPreservesStructure) {
  const auto g = path(5);
  const std::vector<vidx> perm = {4, 3, 2, 1, 0};
  const auto r = relabel(g, perm);
  EXPECT_EQ(r.num_edges(), g.num_edges());
  // Path 0-1-2-3-4 relabeled is path 4-3-2-1-0: same degree sequence.
  for (vidx v = 0; v < 5; ++v) EXPECT_EQ(r.degree(v), g.degree(4 - v));
  EXPECT_TRUE(is_symmetric(r));
}

TEST(Transforms, RelabelRejectsNonPermutation) {
  const auto g = path(3);
  const std::vector<vidx> bad = {0, 0, 1};
  EXPECT_THROW(relabel(g, bad), CheckFailure);
}

TEST(Transforms, DegreeDescendingOrder) {
  // Star: center 0 has degree 3.
  const auto g = from_edges(4, {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}});
  const auto perm = order_by_degree_desc(g);
  EXPECT_EQ(perm[0], 0u);  // the centre gets rank 0
}

TEST(Transforms, InducedSubgraphOfTriangle) {
  const auto g = triangle();
  const std::vector<vidx> keep = {0, 2};
  const auto s = induced_subgraph(g, keep);
  EXPECT_EQ(s.num_vertices(), 2u);
  EXPECT_EQ(s.num_edges(), 2u);  // the 0-2 edge, both directions
}

TEST(Transforms, RandomWeightsAreSymmetricAndBounded) {
  const auto g = triangle();
  const auto w = with_random_weights(g, 99, 100);
  ASSERT_TRUE(w.weighted());
  for (vidx u = 0; u < 3; ++u) {
    const auto nbrs = w.neighbors(u);
    const auto ws = w.weights_of(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      EXPECT_GE(ws[i], 1u);
      EXPECT_LE(ws[i], 100u);
      // Find reverse arc weight.
      const vidx v = nbrs[i];
      const auto vn = w.neighbors(v);
      const auto vw = w.weights_of(v);
      const auto it = std::find(vn.begin(), vn.end(), u);
      ASSERT_NE(it, vn.end());
      EXPECT_EQ(vw[static_cast<usize>(it - vn.begin())], ws[i]);
    }
  }
}

TEST(Transforms, RandomWeightsDeterministicPerSeed) {
  const auto g = path(10);
  const auto a = with_random_weights(g, 1);
  const auto b = with_random_weights(g, 1);
  const auto c = with_random_weights(g, 2);
  EXPECT_TRUE(std::equal(a.weights().begin(), a.weights().end(),
                         b.weights().begin()));
  EXPECT_FALSE(std::equal(a.weights().begin(), a.weights().end(),
                          c.weights().begin()));
}

// --- properties ----------------------------------------------------------------

TEST(Properties, BfsDistancesOnPath) {
  const auto g = path(5);
  const auto d = bfs_distances(g, 0);
  for (vidx v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Properties, BfsUnreachableMarked) {
  const auto g = from_edges(4, {{0, 1, 0}, {2, 3, 0}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Properties, ComponentCounting) {
  const auto g = from_edges(6, {{0, 1, 0}, {1, 2, 0}, {3, 4, 0}});
  EXPECT_EQ(count_components(g), 3u);  // {0,1,2}, {3,4}, {5}
  const auto labels = connected_component_labels(g);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[5], 5u);
}

TEST(Properties, DiameterOfPathIsExact) {
  EXPECT_EQ(estimate_diameter(path(10)), 9u);
}

TEST(Properties, ConnectivityCheck) {
  EXPECT_TRUE(is_connected(path(4)));
  EXPECT_FALSE(is_connected(from_edges(3, {{0, 1, 0}})));
}

TEST(Properties, DegreeHistogramCapsOverflow) {
  const auto g = from_edges(5, {{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}});
  const auto h = degree_histogram(g, 2);
  EXPECT_EQ(h[1], 4u);  // four leaves
  EXPECT_EQ(h[2], 1u);  // center (degree 4) capped into last bucket
}

}  // namespace
}  // namespace eclp::graph
