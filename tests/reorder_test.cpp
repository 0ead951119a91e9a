// Reordering-suite tests: spec grammar, permutation validity for every
// order, the multi-component BFS regression, known-order locality values,
// Gorder's exactness (a brute-force reference and golden permutation
// digests), build-thread invariance of the relabeled graphs, and the
// graph-cache memoization of apply_reorder.
//
// Regenerate the Gorder golden after an *intentional* change to the order:
//   ECLP_UPDATE_GOLDEN=1 ./eclp_tests --gtest_filter='Reorder.Gorder*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/cache.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "support/parallel_for.hpp"

namespace eclp {
namespace {

graph::Csr path(vidx n) {
  std::vector<graph::Edge> edges;
  for (vidx v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 0});
  return graph::from_edges(n, edges);
}

/// Two triangles, one 2-path, and an isolated vertex: 4 components.
graph::Csr disconnected() {
  return graph::from_edges(
      9, {{0, 1, 0}, {1, 2, 0}, {0, 2, 0},            // component A
          {3, 4, 0}, {4, 5, 0}, {3, 5, 0},            // component B
          {6, 7, 0}});                                // component C; 8 isolated
}

bool is_permutation_of_n(const std::vector<vidx>& perm, vidx n) {
  if (perm.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const vidx p : perm) {
    if (p >= n || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

std::vector<vidx> inverse(const std::vector<vidx>& perm) {
  std::vector<vidx> inv(perm.size());
  for (vidx v = 0; v < perm.size(); ++v) inv[perm[v]] = v;
  return inv;
}

// --- ReorderSpec grammar -----------------------------------------------------

TEST(ReorderSpec, ParsesEveryForm) {
  using Kind = graph::ReorderSpec::Kind;
  EXPECT_EQ(graph::ReorderSpec::parse("").kind, Kind::kNatural);
  EXPECT_EQ(graph::ReorderSpec::parse("none").kind, Kind::kNatural);
  EXPECT_EQ(graph::ReorderSpec::parse("natural").kind, Kind::kNatural);
  EXPECT_TRUE(graph::ReorderSpec::parse("natural").is_natural());

  const auto rnd = graph::ReorderSpec::parse("random");
  EXPECT_EQ(rnd.kind, Kind::kRandom);
  EXPECT_EQ(rnd.seed, 1u);
  EXPECT_EQ(graph::ReorderSpec::parse("random:7").seed, 7u);

  EXPECT_EQ(graph::ReorderSpec::parse("bfs").kind, Kind::kBfs);
  EXPECT_EQ(graph::ReorderSpec::parse("degree").kind, Kind::kDegree);
  EXPECT_EQ(graph::ReorderSpec::parse("hub").kind, Kind::kHub);
  EXPECT_EQ(graph::ReorderSpec::parse("hubcluster").kind, Kind::kHubCluster);

  const auto gorder = graph::ReorderSpec::parse("gorder");
  EXPECT_EQ(gorder.kind, Kind::kGorder);
  EXPECT_EQ(gorder.window, 8u);
  EXPECT_EQ(graph::ReorderSpec::parse("gorder:16").window, 16u);
}

TEST(ReorderSpec, CanonicalFormIsStable) {
  // Aliases collapse: cache/pool keys must not split on spelling.
  EXPECT_EQ(graph::ReorderSpec::parse("").canonical(), "natural");
  EXPECT_EQ(graph::ReorderSpec::parse("none").canonical(), "natural");
  EXPECT_EQ(graph::ReorderSpec::parse("random").canonical(), "random:1");
  EXPECT_EQ(graph::ReorderSpec::parse("random:1").canonical(), "random:1");
  EXPECT_EQ(graph::ReorderSpec::parse("gorder").canonical(), "gorder:8");
  EXPECT_EQ(graph::ReorderSpec::parse("hub").canonical(), "hub");
  // Round-trip: parsing a canonical form reproduces it.
  for (const auto& spec : graph::reorder_suite()) {
    EXPECT_EQ(graph::ReorderSpec::parse(spec.canonical()).canonical(),
              spec.canonical());
  }
}

TEST(ReorderSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(graph::ReorderSpec::parse("zorder"), CheckFailure);
  EXPECT_THROW(graph::ReorderSpec::parse("random:"), CheckFailure);
  EXPECT_THROW(graph::ReorderSpec::parse("random:abc"), CheckFailure);
  EXPECT_THROW(graph::ReorderSpec::parse("gorder:0"), CheckFailure);
  EXPECT_THROW(graph::ReorderSpec::parse("hub:3"), CheckFailure);
}

TEST(ReorderSpec, RejectsOutOfRangeArgumentsWithADiagnostic) {
  // Regression: these used to escape as uncaught std::out_of_range from
  // std::stoull/std::stoul instead of a typed CheckFailure diagnostic.
  EXPECT_THROW(graph::ReorderSpec::parse("random:99999999999999999999999"),
               CheckFailure);
  EXPECT_THROW(graph::ReorderSpec::parse("gorder:99999999999"), CheckFailure);
  try {
    graph::ReorderSpec::parse("random:99999999999999999999999");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("does not fit"), std::string::npos)
        << e.what();
  }
  // The extreme in-range values still parse.
  EXPECT_EQ(graph::ReorderSpec::parse("random:18446744073709551615").seed,
            ~u64{0});
  EXPECT_EQ(graph::ReorderSpec::parse("gorder:4294967295").window,
            4294967295u);
}

// --- permutation validity ----------------------------------------------------

TEST(Reorder, EveryOrderIsABijection) {
  const auto g = gen::rmat(10, 8000, 0.45, 0.22, 0.22, 5);
  for (const auto& spec : graph::reorder_suite()) {
    EXPECT_TRUE(is_permutation_of_n(graph::make_order(g, spec),
                                    g.num_vertices()))
        << spec.canonical();
  }
  EXPECT_TRUE(is_permutation_of_n(graph::order_hub_cluster(g),
                                  g.num_vertices()));
}

TEST(Reorder, EveryOrderCoversDisconnectedGraphs) {
  // Regression for the multi-component case: every order must rank every
  // vertex even when vertex 0's component does not reach the whole graph
  // (order_bfs restarts from the lowest-id unvisited vertex; order_gorder
  // falls back to id order when the affinity heap drains).
  const auto g = disconnected();
  for (const auto& spec : graph::reorder_suite()) {
    EXPECT_TRUE(is_permutation_of_n(graph::make_order(g, spec),
                                    g.num_vertices()))
        << spec.canonical();
  }
  EXPECT_TRUE(is_permutation_of_n(graph::order_hub_cluster(g),
                                  g.num_vertices()));
  // The isolated vertex (8) is ranked by the BFS restart chain, not left
  // at the sentinel.
  const auto bfs = graph::order_bfs(g);
  EXPECT_LT(bfs[8], g.num_vertices());
}

TEST(Reorder, MortonGridIsABijectionAndRejectsOverflowingSides) {
  // 64 exercises the exact power-of-two interleave; 257 needs 9 coordinate
  // bits and a non-power-of-two row stride.
  for (const u32 side : {64u, 257u}) {
    EXPECT_TRUE(is_permutation_of_n(graph::order_morton_grid(side),
                                    static_cast<vidx>(side * side)))
        << side;
  }
  // Regression: side >= 2^16 used to wrap y*side + x in 32-bit arithmetic
  // and hand back a non-permutation; it is now rejected up front.
  EXPECT_THROW(graph::order_morton_grid(65536), CheckFailure);
  EXPECT_THROW(graph::order_morton_grid(70000), CheckFailure);
}

TEST(Reorder, RelabelRoundTripsThroughTheInversePermutation) {
  const auto g = gen::rmat(9, 4000, 0.45, 0.22, 0.22, 7);
  for (const auto* spec : {"hub", "hubcluster", "gorder", "degree"}) {
    const auto perm = graph::make_order(g, graph::ReorderSpec::parse(spec));
    const auto forward = graph::relabel(g, perm);
    EXPECT_EQ(graph::relabel(forward, inverse(perm)), g) << spec;
  }
}

// --- order-specific structure ------------------------------------------------

TEST(Reorder, HubOrderFrontLoadsAboveMeanDegrees) {
  const auto g = gen::rmat(10, 8000, 0.45, 0.22, 0.22, 9);
  const double mean = static_cast<double>(g.num_edges()) /
                      static_cast<double>(g.num_vertices());
  vidx num_hubs = 0;
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    num_hubs += static_cast<double>(g.degree(v)) > mean;
  }
  ASSERT_GT(num_hubs, 0u);
  const auto r = graph::relabel(g, graph::order_hub(g));
  // Exactly the hub prefix exceeds the mean; degrees there are descending.
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    if (v < num_hubs) {
      EXPECT_GT(static_cast<double>(r.degree(v)), mean) << v;
      if (v + 1 < num_hubs) {
        EXPECT_GE(r.degree(v), r.degree(v + 1)) << v;
      }
    } else {
      EXPECT_LE(static_cast<double>(r.degree(v)), mean) << v;
    }
  }
}

TEST(Reorder, HubClusterBucketsAreMonotone) {
  const auto g = gen::rmat(10, 8000, 0.45, 0.22, 0.22, 11);
  const auto r = graph::relabel(g, graph::order_hub_cluster(g));
  const auto bucket = [&](vidx v) {
    u32 b = 0;
    for (u64 d = static_cast<u64>(r.degree(v)) + 1; d > 1; d >>= 1) ++b;
    return b;
  };
  for (vidx v = 0; v + 1 < r.num_vertices(); ++v) {
    EXPECT_GE(bucket(v), bucket(v + 1)) << v;
  }
}

// --- locality metrics on known orders ----------------------------------------

TEST(Reorder, PathGraphLocalityIsExact) {
  const vidx n = 256;
  const auto g = path(n);
  // Every edge spans id distance exactly 1, so the mean distance is 1 and
  // the normalized score is 1/n.
  EXPECT_NEAR(graph::locality_score(g), 1.0 / n, 1e-12);
  // 2 * 255 arcs; one edge (two arcs) crosses each of the three aligned
  // 64-boundaries (63-64, 127-128, 191-192).
  EXPECT_NEAR(graph::block_affinity(g, 64), (510.0 - 6.0) / 510.0, 1e-12);
}

TEST(Reorder, RandomOrderScoresNearOneThird) {
  const auto p = path(4096);
  const auto g = graph::relabel(p, graph::order_random(p, 3));
  EXPECT_NEAR(graph::locality_score(g), 1.0 / 3.0, 0.05);
  EXPECT_LT(graph::block_affinity(g, 64), 0.1);
}

TEST(Reorder, GorderBeatsRandomLocalityOnMeshes) {
  const auto g = gen::cold_flow(24, 3);
  const auto random = graph::relabel(g, graph::order_random(g, 5));
  const auto gordered =
      graph::relabel(random, graph::order_gorder(random));
  EXPECT_LT(graph::locality_score(gordered), graph::locality_score(random));
  EXPECT_GT(graph::block_affinity(gordered, 256),
            graph::block_affinity(random, 256));
}

// --- Gorder exactness --------------------------------------------------------

/// Gorder's greedy order straight from its definition. Before every pick,
/// each vertex's score is recomputed from the last `window` placed vertices
/// u: one point per arc u -> v, plus one per path u -> nb -> v through a
/// neighbour nb whose degree is at most the hub cap (v != u; arcs counted
/// with multiplicity). The unplaced vertex with the highest score is placed
/// next, ties to the lowest id. Scores are never negative, so when every
/// score is 0 this picks the lowest unplaced id.
std::vector<vidx> brute_force_gorder(const graph::Csr& g, u32 window) {
  const vidx n = g.num_vertices();
  const u64 hub_cap =
      std::max<u64>(64, 8 * (u64{g.num_edges()} / std::max<vidx>(n, 1)));
  std::vector<vidx> perm(n, kNoVertex);
  std::vector<vidx> order;
  std::vector<i64> score(n);
  for (vidx rank = 0; rank < n; ++rank) {
    std::fill(score.begin(), score.end(), 0);
    const usize first = order.size() > window ? order.size() - window : 0;
    for (usize i = first; i < order.size(); ++i) {
      const vidx u = order[i];
      for (const vidx nb : g.neighbors(u)) {
        ++score[nb];
        if (g.degree(nb) > hub_cap) continue;
        for (const vidx sib : g.neighbors(nb)) {
          if (sib != u) ++score[sib];
        }
      }
    }
    vidx pick = kNoVertex;
    for (vidx v = 0; v < n; ++v) {
      if (perm[v] == kNoVertex && (pick == kNoVertex || score[v] > score[pick]))
        pick = v;
    }
    perm[pick] = rank;
    order.push_back(pick);
  }
  return perm;
}

/// A star whose centre (id 37, degree 100) exceeds the hub cap of 64, with
/// a few leaf-leaf edges so the leaves' scores differ. One edge joins it to
/// a second star whose centre (id 101, degree 64) sits exactly at the cap.
/// Its leaves, the even ids 102..228, are joined in pairs, and the odd ids
/// between them are isolated: whether siblings expand through centre 101
/// decides between another leaf and the lowest-id fallback.
graph::Csr hub_star() {
  std::vector<graph::Edge> edges;
  for (vidx leaf = 0; leaf <= 100; ++leaf) {
    if (leaf != 37) edges.push_back({37, leaf, 0});
  }
  for (const vidx leaf : {3u, 50u, 90u}) edges.push_back({leaf, leaf + 5, 0});
  edges.push_back({100, 102, 0});
  for (vidx leaf = 102; leaf <= 228; leaf += 2) {
    edges.push_back({101, leaf, 0});
    if (leaf % 4 == 2) edges.push_back({leaf, leaf + 2, 0});
  }
  return graph::from_edges(229, edges);
}

/// A 4x4 grid (ids 2..17) and a 6-cycle (ids 20..25), with isolated
/// vertices 0, 1, 18, 19 and 26: once a component is placed, the next pick
/// falls back to the lowest unplaced id.
graph::Csr two_components_and_isolated() {
  std::vector<graph::Edge> edges;
  for (vidx r = 0; r < 4; ++r) {
    for (vidx c = 0; c < 4; ++c) {
      const vidx v = 2 + 4 * r + c;
      if (c + 1 < 4) edges.push_back({v, v + 1, 0});
      if (r + 1 < 4) edges.push_back({v, v + 4, 0});
    }
  }
  for (vidx i = 0; i < 6; ++i) edges.push_back({20 + i, 20 + (i + 1) % 6, 0});
  return graph::from_edges(27, edges);
}

/// A directed multigraph straight from CSR arrays: duplicate arcs 0 -> 1
/// and 3 -> 4, a self-loop on 2, and a vertex (5) with no out-arcs.
graph::Csr multigraph() {
  // Out-lists: 0:{1,1,2} 1:{2,3} 2:{2,4,6} 3:{4,4,0} 4:{5} 5:{} 6:{0,3}.
  return graph::Csr::from_parts(
      7, {0, 3, 5, 8, 11, 12, 12, 14},
      {1, 1, 2, 2, 3, 2, 4, 6, 4, 4, 0, 5, 0, 3}, {}, /*directed=*/true);
}

TEST(Reorder, GorderMatchesBruteForceGreedy) {
  const std::vector<std::pair<std::string, graph::Csr>> graphs = {
      {"hub star", hub_star()},
      {"two components + isolated", two_components_and_isolated()},
      {"multigraph", multigraph()},
      {"rmat", gen::rmat(7, 600, 0.45, 0.22, 0.22, 3)},
  };
  for (const auto& [name, g] : graphs) {
    for (const u32 window : {1u, 2u, 3u, 8u, 4294967295u}) {
      EXPECT_EQ(graph::order_gorder(g, window), brute_force_gorder(g, window))
          << name << " window=" << window;
    }
  }
}

/// 64-bit FNV-1a over the little-endian bytes of a permutation.
u64 perm_digest(const std::vector<vidx>& perm) {
  u64 hash = 0xcbf29ce484222325ULL;
  for (const vidx p : perm) {
    for (u32 shift = 0; shift < 32; shift += 8) {
      hash = (hash ^ ((p >> shift) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

std::vector<std::string> gorder_perm_lines() {
  std::vector<std::string> lines;
  for (const char* input : {"delaunay_n24", "toroid-hex", "cold-flow",
                            "rmat16.sym", "coPapersDBLP", "internet"}) {
    for (const auto scale : {gen::Scale::kTiny, gen::Scale::kSmall}) {
      const auto g = gen::find_input(input).make(scale);
      for (const u32 window : {1u, 8u, 4294967295u}) {
        std::ostringstream os;
        os << input << ' ' << gen::scale_name(scale) << " window=" << window
           << " n=" << g.num_vertices() << " digest="
           << perm_digest(graph::order_gorder(g, window));
        lines.push_back(os.str());
      }
    }
  }
  return lines;
}

TEST(Reorder, GorderPermutationsPinned) {
  const std::string path = std::string(ECLP_GOLDEN_DIR) + "/gorder_perms.txt";
  const auto lines = gorder_perm_lines();
  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << "# Golden Gorder permutation digests (64-bit FNV-1a of "
          "order_gorder's\n"
          "# permutation) per suite input, scale and window.\n"
          "# Regenerate: ECLP_UPDATE_GOLDEN=1 ./eclp_tests "
          "--gtest_filter='Reorder.Gorder*'\n";
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
  EXPECT_EQ(lines, golden) << "Gorder permutations drifted from " << path;
}

// --- determinism across build threads ----------------------------------------

TEST(Reorder, OrdersAndRelabelsAreBuildThreadInvariant) {
  const u32 restore = build_threads();
  const auto g = gen::rmat(9, 4000, 0.45, 0.22, 0.22, 13);
  std::vector<graph::Csr> baseline;
  for (const u32 threads : {1u, 2u, 7u}) {
    set_build_threads(threads);
    std::vector<graph::Csr> relabeled;
    for (const auto& spec : graph::reorder_suite()) {
      relabeled.push_back(graph::apply_reorder(g, spec));
    }
    if (baseline.empty()) {
      baseline = std::move(relabeled);
      continue;
    }
    EXPECT_EQ(relabeled, baseline) << threads << " build threads";
  }
  set_build_threads(restore);
}

// --- graph-cache memoization -------------------------------------------------

TEST(Reorder, ApplyReorderIsMemoizedThroughTheGraphCache) {
  const std::string saved_dir = graph::cache_dir();
  const auto dir =
      std::filesystem::temp_directory_path() / "eclp_reorder_cache_test";
  std::filesystem::remove_all(dir);
  graph::set_cache_dir(dir.string());
  graph::reset_cache_stats();

  const auto g = gen::rmat(9, 4000, 0.45, 0.22, 0.22, 15);
  const auto spec = graph::ReorderSpec::parse("hub");
  const auto cold = graph::apply_reorder(g, spec);
  const auto after_cold = graph::cache_stats();
  EXPECT_EQ(after_cold.misses, 1u);
  EXPECT_EQ(after_cold.stores, 1u);

  const auto warm = graph::apply_reorder(g, spec);
  const auto after_warm = graph::cache_stats();
  EXPECT_EQ(after_warm.hits, 1u);
  EXPECT_EQ(warm, cold);

  // A different spec (and a different window of the same kind) must miss:
  // the key includes the canonical spec.
  graph::apply_reorder(g, graph::ReorderSpec::parse("gorder"));
  graph::apply_reorder(g, graph::ReorderSpec::parse("gorder:4"));
  EXPECT_EQ(graph::cache_stats().misses, 3u);

  // Natural specs bypass the cache entirely.
  graph::apply_reorder(g, graph::ReorderSpec::parse("natural"));
  EXPECT_EQ(graph::cache_stats().misses, 3u);
  EXPECT_EQ(graph::cache_stats().hits, 1u);

  graph::set_cache_dir(saved_dir);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace eclp
