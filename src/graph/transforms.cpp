#include "graph/transforms.hpp"

#include <algorithm>

#include "graph/builder.hpp"

namespace eclp::graph {

Csr transpose(const Csr& g) {
  Builder b(g.num_vertices());
  b.reserve_edges(g.num_edges());
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      const weight_t w = g.weighted() ? g.weights_of(u)[i] : 0;
      b.add(nbrs[i], u, w);
    }
  }
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = g.weighted();
  opt.remove_self_loops = false;
  opt.dedupe = false;
  return b.build(opt);
}

Csr symmetrize(const Csr& g) {
  Builder b(g.num_vertices());
  b.reserve_edges(g.num_edges());
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      const weight_t w = g.weighted() ? g.weights_of(u)[i] : 0;
      b.add(u, nbrs[i], w);
    }
  }
  BuildOptions opt;
  opt.directed = false;
  opt.weighted = g.weighted();
  opt.remove_self_loops = true;
  opt.dedupe = true;
  return b.build(opt);
}

namespace {

/// Rebuild a CSR from one-sided arc copies: the arcs already include both
/// directions for undirected graphs, so the builder must not mirror again;
/// the undirected flag is restored on the assembled parts.
Csr assemble_as_is(Builder& b, const Csr& original) {
  BuildOptions opt;
  opt.directed = true;
  opt.weighted = original.weighted();
  opt.remove_self_loops = false;
  opt.dedupe = false;
  Csr out = b.build(opt);
  return Csr::from_parts(
      out.num_vertices(),
      std::vector<eidx>(out.row_offsets().begin(), out.row_offsets().end()),
      std::vector<vidx>(out.col_indices().begin(), out.col_indices().end()),
      std::vector<weight_t>(out.weights().begin(), out.weights().end()),
      original.directed());
}

}  // namespace

Csr remove_self_loops(const Csr& g) {
  Builder b(g.num_vertices());
  b.reserve_edges(g.num_edges());
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == u) continue;
      const weight_t w = g.weighted() ? g.weights_of(u)[i] : 0;
      b.add(u, nbrs[i], w);
    }
  }
  return assemble_as_is(b, g);
}

Csr relabel(const Csr& g, std::span<const vidx> perm) {
  ECLP_CHECK(perm.size() == g.num_vertices());
  // Verify it is a permutation.
  std::vector<bool> seen(g.num_vertices(), false);
  for (const vidx p : perm) {
    ECLP_CHECK(p < g.num_vertices());
    ECLP_CHECK_MSG(!seen[p], "relabel: duplicate target id " << p);
    seen[p] = true;
  }
  Builder b(g.num_vertices());
  b.reserve_edges(g.num_edges());
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      const weight_t w = g.weighted() ? g.weights_of(u)[i] : 0;
      b.add(perm[u], perm[nbrs[i]], w);
    }
  }
  return assemble_as_is(b, g);
}

Csr induced_subgraph(const Csr& g, std::span<const vidx> keep) {
  std::vector<vidx> new_id(g.num_vertices(), kNoVertex);
  for (usize i = 0; i < keep.size(); ++i) {
    ECLP_CHECK(keep[i] < g.num_vertices());
    ECLP_CHECK_MSG(new_id[keep[i]] == kNoVertex,
                   "induced_subgraph: duplicate vertex " << keep[i]);
    new_id[keep[i]] = static_cast<vidx>(i);
  }
  Builder b(static_cast<vidx>(keep.size()));
  for (const vidx u : keep) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      const vidx v = nbrs[i];
      if (new_id[v] == kNoVertex) continue;
      const weight_t w = g.weighted() ? g.weights_of(u)[i] : 0;
      b.add(new_id[u], new_id[v], w);
    }
  }
  BuildOptions opt;
  opt.directed = true;  // arcs were copied one-sided; mirrors come along too
  opt.weighted = g.weighted();
  opt.remove_self_loops = false;
  opt.dedupe = false;
  Csr out = b.build(opt);
  // The subgraph of an undirected graph is symmetric by construction; restore
  // the undirected flag by rebuilding the metadata.
  if (!g.directed()) {
    out = Csr::from_parts(
        out.num_vertices(),
        std::vector<eidx>(out.row_offsets().begin(), out.row_offsets().end()),
        std::vector<vidx>(out.col_indices().begin(), out.col_indices().end()),
        std::vector<weight_t>(out.weights().begin(), out.weights().end()),
        /*directed=*/false);
  }
  return out;
}

Csr with_random_weights(const Csr& g, u64 seed, weight_t max_weight) {
  ECLP_CHECK(max_weight >= 1);
  std::vector<weight_t> weights;
  weights.reserve(g.num_edges());
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx v : g.neighbors(u)) {
      // Hash of the unordered endpoint pair so (u,v) and (v,u) match.
      const u64 lo = std::min(u, v), hi = std::max(u, v);
      const u64 h = splitmix64(splitmix64(seed ^ (lo << 32)) ^ hi);
      weights.push_back(static_cast<weight_t>(h % max_weight) + 1);
    }
  }
  return Csr::from_parts(
      g.num_vertices(),
      std::vector<eidx>(g.row_offsets().begin(), g.row_offsets().end()),
      std::vector<vidx>(g.col_indices().begin(), g.col_indices().end()),
      std::move(weights), g.directed());
}

bool is_symmetric(const Csr& g) {
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx v : g.neighbors(u)) {
      const auto nb = g.neighbors(v);
      const bool found =
          std::is_sorted(nb.begin(), nb.end())
              ? std::binary_search(nb.begin(), nb.end(), u)
              : std::find(nb.begin(), nb.end(), u) != nb.end();
      if (!found) return false;
    }
  }
  return true;
}

}  // namespace eclp::graph
