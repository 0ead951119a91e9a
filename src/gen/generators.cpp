#include "gen/generators.hpp"

#include <algorithm>
#include <cmath>

#include "gen/stream.hpp"
#include "graph/builder.hpp"
#include "graph/stream_build.hpp"
#include "support/prng.hpp"

namespace eclp::gen {

using graph::Builder;
using graph::Csr;

Csr grid2d_torus(u32 side) {
  ECLP_CHECK(side >= 3);
  const vidx n = side * side;
  Builder b(n);
  b.reserve_edges(static_cast<usize>(n) * 2);
  const auto id = [side](u32 x, u32 y) { return y * side + x; };
  for (u32 y = 0; y < side; ++y) {
    for (u32 x = 0; x < side; ++x) {
      b.add(id(x, y), id((x + 1) % side, y));
      b.add(id(x, y), id(x, (y + 1) % side));
    }
  }
  return b.build();
}

Csr triangulated_grid(u32 side, u64 seed) {
  ECLP_CHECK(side >= 3);
  const vidx n = side * side;
  Rng rng(seed);
  Builder b(n);
  b.reserve_edges(static_cast<usize>(n) * 3);
  const auto id = [side](u32 x, u32 y) { return y * side + x; };
  for (u32 y = 0; y < side; ++y) {
    for (u32 x = 0; x < side; ++x) {
      const u32 xr = (x + 1) % side, yd = (y + 1) % side;
      b.add(id(x, y), id(xr, y));
      b.add(id(x, y), id(x, yd));
      // One diagonal per cell, random orientation — degrees land in 4..8,
      // mimicking a planar triangulation's degree spread.
      if (rng.chance(0.5)) {
        b.add(id(x, y), id(xr, yd));
      } else {
        b.add(id(xr, y), id(x, yd));
      }
    }
  }
  return b.build();
}

Csr uniform_random(vidx n, u64 edges, u64 seed) {
  return graph::build_from_chunks(UniformRandomStream(n, edges, seed));
}

Csr rmat(u32 scale, u64 edges, double a, double b, double c, u64 seed) {
  return graph::build_from_chunks(RmatStream(scale, edges, a, b, c, seed));
}

Csr kronecker(u32 scale, u64 edges, u64 seed) {
  return graph::build_from_chunks(RmatStream::kronecker(scale, edges, seed));
}

Csr preferential_attachment(vidx n, u32 m, u64 seed) {
  return graph::build_from_chunks(PreferentialAttachmentStream(n, m, seed));
}

Csr internet_topology(vidx n, u64 seed) {
  ECLP_CHECK(n >= 8);
  Rng rng(seed);
  Builder b(n);
  std::vector<vidx> targets;
  targets.reserve(static_cast<usize>(n) * 4);
  for (vidx u = 0; u < 4; ++u) {
    for (vidx v = u + 1; v < 4; ++v) {
      b.add(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  for (vidx u = 4; u < n; ++u) {
    // Mostly stub networks (1 uplink), some multihomed (2), rare exchanges.
    const double r = rng.unit();
    const u32 m = r < 0.62 ? 1 : (r < 0.94 ? 2 : 4);
    for (u32 k = 0; k < m; ++k) {
      const vidx v = targets[rng.below(targets.size())];
      if (v == u) continue;
      b.add(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  return b.build();
}

Csr citation(vidx n, double avg_out, double p_no_citation, u64 seed) {
  ECLP_CHECK(n >= 2);
  ECLP_CHECK(avg_out > 0.0);
  ECLP_CHECK(p_no_citation >= 0.0 && p_no_citation < 1.0);
  Rng rng(seed);
  Builder b(n);
  // Citing vertices emit Geometric-ish out-degrees with the target mean.
  const double mean_when_citing = avg_out / (1.0 - p_no_citation);
  for (vidx u = 1; u < n; ++u) {
    if (rng.chance(p_no_citation)) continue;
    // Sample a positive out-degree with the desired conditional mean.
    u32 k = 1;
    while (rng.chance(1.0 - 1.0 / mean_when_citing) && k < 64) ++k;
    for (u32 j = 0; j < k; ++j) {
      // Recency bias: mostly cite recent work, occasionally old classics.
      vidx v;
      if (rng.chance(0.8)) {
        const vidx window = std::max<vidx>(1, std::min<vidx>(u, n / 16));
        v = u - 1 - static_cast<vidx>(rng.below(window));
      } else {
        v = static_cast<vidx>(rng.below(u));
      }
      b.add(u, v);
    }
  }
  return b.build();
}

Csr road_network(u32 side, double q, u64 seed) {
  ECLP_CHECK(side >= 3);
  ECLP_CHECK(q >= 0.0 && q <= 1.0);
  const vidx n = side * side;
  Rng rng(seed);
  const auto id = [side](u32 x, u32 y) { return y * side + x; };

  // Random spanning tree via randomized DFS over the (non-torus) grid.
  std::vector<bool> visited(n, false);
  std::vector<vidx> stack;
  Builder b(n);
  stack.push_back(0);
  visited[0] = true;
  // Collect all grid edges first.
  std::vector<std::pair<vidx, vidx>> grid_edges;
  grid_edges.reserve(static_cast<usize>(n) * 2);
  for (u32 y = 0; y < side; ++y) {
    for (u32 x = 0; x < side; ++x) {
      if (x + 1 < side) grid_edges.push_back({id(x, y), id(x + 1, y)});
      if (y + 1 < side) grid_edges.push_back({id(x, y), id(x, y + 1)});
    }
  }
  // Adjacency for DFS.
  std::vector<std::vector<vidx>> adj(n);
  for (const auto& [u, v] : grid_edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<std::pair<vidx, vidx>> in_tree;
  while (!stack.empty()) {
    const vidx u = stack.back();
    stack.pop_back();
    rng.shuffle(adj[u]);
    for (const vidx v : adj[u]) {
      if (!visited[v]) {
        visited[v] = true;
        in_tree.push_back({u, v});
        stack.push_back(v);
        stack.push_back(u);  // continue exploring u later (iterative DFS)
        break;
      }
    }
  }
  // Membership set for tree edges (normalized order).
  auto norm = [](std::pair<vidx, vidx> e) {
    if (e.first > e.second) std::swap(e.first, e.second);
    return e;
  };
  std::vector<std::pair<vidx, vidx>> tree_sorted;
  tree_sorted.reserve(in_tree.size());
  for (auto e : in_tree) tree_sorted.push_back(norm(e));
  std::sort(tree_sorted.begin(), tree_sorted.end());

  for (const auto& e : in_tree) b.add(e.first, e.second);
  for (const auto& e : grid_edges) {
    if (std::binary_search(tree_sorted.begin(), tree_sorted.end(), norm(e))) {
      continue;
    }
    if (rng.chance(q)) b.add(e.first, e.second);
  }
  return b.build();
}

Csr clique_union(vidx n, usize cliques, u32 min_size, u32 max_size,
                 u64 seed) {
  ECLP_CHECK(n >= max_size && max_size >= min_size && min_size >= 2);
  Rng rng(seed);
  Builder b(n);
  std::vector<vidx> members;
  for (usize c = 0; c < cliques; ++c) {
    // Zipf-ish size: small papers common, big collaborations rare.
    const double z = rng.unit();
    const u32 size = min_size + static_cast<u32>((max_size - min_size) *
                                                 z * z * z);
    members.clear();
    // Authors cluster: pick a community anchor and draw members near it.
    const vidx anchor = static_cast<vidx>(rng.below(n));
    for (u32 k = 0; k < size; ++k) {
      const vidx span = std::max<vidx>(64, n / 256);
      const vidx offset = static_cast<vidx>(rng.below(span));
      members.push_back((anchor + offset) % n);
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    for (usize i = 0; i < members.size(); ++i) {
      for (usize j = i + 1; j < members.size(); ++j) {
        b.add(members[i], members[j]);
      }
    }
  }
  return b.build();
}

Csr weblink(vidx n, double avg_degree, u64 seed) {
  ECLP_CHECK(n >= 16);
  Rng rng(seed);
  // Pages cluster into "hosts" that are internally well linked, plus
  // RMAT-style cross-host links with hub skew.
  Builder b(n);
  const vidx host_size = 32;
  const vidx hosts = (n + host_size - 1) / host_size;
  // Intra-host structure: every page links to the host's root page (its
  // smallest id — after symmetrization the root's neighbors are therefore
  // all larger, reproducing in-2004's large traversed/initialized gap in
  // the paper's Table 4), plus random intra-host links.
  for (vidx h = 0; h < hosts; ++h) {
    const vidx base = h * host_size;
    const vidx count = std::min<vidx>(host_size, n - base);
    if (count < 2) continue;
    for (vidx i = 1; i < count; ++i) {
      b.add(base + i, base);
    }
    const u64 extra =
        static_cast<u64>(count * std::max(0.0, avg_degree / 4.0 - 1.0));
    for (u64 e = 0; e < extra; ++e) {
      const vidx u = base + static_cast<vidx>(rng.below(count));
      const vidx v = base + static_cast<vidx>(rng.below(count));
      if (u != v) b.add(u, v);
    }
  }
  // Cross-host hub links: preferential sampling of target pages, seeded
  // with a small set of already-popular sites so the tail develops the
  // huge hubs of real weblink crawls.
  std::vector<vidx> targets;
  targets.reserve(n);
  const vidx popular = std::max<vidx>(8, n / 100);
  for (vidx v = 0; v < popular; ++v) {
    for (int k = 0; k < 40; ++k) targets.push_back(v * (n / popular));
  }
  for (vidx v = 0; v < n; v += 8) targets.push_back(v);
  const u64 cross = static_cast<u64>(n * avg_degree / 4.0);
  for (u64 e = 0; e < cross; ++e) {
    const vidx u = static_cast<vidx>(rng.below(n));
    const vidx v = targets[rng.below(targets.size())];
    if (u == v) continue;
    b.add(u, v);
    // Rich get richer, strongly: link targets are re-inserted several times
    // so the tail reaches the huge hubs real weblink graphs show (in-2004:
    // d-max / d-avg > 1000).
    for (int k = 0; k < 4; ++k) targets.push_back(v);
  }
  return b.build();
}

Csr chung_lu(vidx n, double avg_degree, double exponent, double max_degree,
             u64 seed) {
  ECLP_CHECK(n >= 16);
  ECLP_CHECK(avg_degree > 0.0 && exponent > 2.0);
  ECLP_CHECK(max_degree >= avg_degree);
  Rng rng(seed);

  // Expected-degree weights: a truncated Pareto tail over vertex ranks.
  const double alpha = 1.0 / (exponent - 1.0);
  std::vector<double> w(n);
  double total = 0.0;
  for (vidx v = 0; v < n; ++v) {
    w[v] = std::pow(static_cast<double>(v) + 1.0, -alpha);
    total += w[v];
  }
  // Scale to the target mean, then clamp the head to the target maximum
  // (clamping shifts the mean down slightly; acceptable for a generator).
  const double scale = avg_degree * static_cast<double>(n) / total;
  for (double& x : w) x = std::min(x * scale, max_degree);
  double wsum = 0.0;
  for (const double x : w) wsum += x;

  // Edge sampling: draw ~ n*avg/2 endpoint pairs weight-proportionally via
  // the alias-free cumulative trick (binary search in the prefix sums).
  std::vector<double> prefix(n);
  double run = 0.0;
  for (vidx v = 0; v < n; ++v) {
    run += w[v];
    prefix[v] = run;
  }
  const auto sample = [&]() -> vidx {
    const double r = rng.unit() * wsum;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), r);
    return static_cast<vidx>(it - prefix.begin());
  };
  Builder b(n);
  const u64 edges = static_cast<u64>(avg_degree * n / 2.0);
  b.reserve_edges(edges);
  for (u64 e = 0; e < edges; ++e) {
    const vidx u = sample();
    const vidx v = sample();
    if (u != v) b.add(u, v);
  }
  return b.build();
}

}  // namespace eclp::gen
