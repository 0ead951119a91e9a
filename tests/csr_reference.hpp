// Test-local reference for the CSR assembly contract, written independently
// of graph/stream_build.hpp: the canonical edge sequence with each mirror
// right after its original, one global stable sort by (src, dst), a
// keep-first dedupe, and a linear sweep into the CSR arrays. The identity
// tests compare the pipeline's bytes against it.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"

namespace eclp {

inline graph::Csr reference_build(vidx num_vertices,
                                  const std::vector<graph::Edge>& edges,
                                  const graph::BuildOptions& opt = {}) {
  std::vector<graph::Edge> arcs;
  arcs.reserve(edges.size() * 2);
  for (const graph::Edge& e : edges) {
    if (opt.remove_self_loops && e.src == e.dst) continue;
    arcs.push_back(e);
    if (!opt.directed) arcs.push_back({e.dst, e.src, e.w});
  }
  std::stable_sort(arcs.begin(), arcs.end(),
                   [](const graph::Edge& a, const graph::Edge& b) {
                     return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                   });
  if (opt.dedupe) {
    arcs.erase(std::unique(arcs.begin(), arcs.end(),
                           [](const graph::Edge& a, const graph::Edge& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               arcs.end());
  }
  std::vector<eidx> offsets(static_cast<usize>(num_vertices) + 1, 0);
  for (const graph::Edge& e : arcs) offsets[e.src + 1]++;
  for (usize v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  std::vector<vidx> targets;
  std::vector<weight_t> weights;
  for (const graph::Edge& e : arcs) {
    targets.push_back(e.dst);
    if (opt.weighted) weights.push_back(e.w);
  }
  return graph::Csr::from_parts(num_vertices, std::move(offsets),
                                std::move(targets), std::move(weights),
                                opt.directed);
}

}  // namespace eclp
