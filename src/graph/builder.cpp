#include "graph/builder.hpp"

#include <algorithm>

#include "graph/stream_build.hpp"
#include "support/parallel_for.hpp"

namespace eclp::graph {

void Builder::add(vidx src, vidx dst, weight_t w) {
  ECLP_CHECK_MSG(src < num_vertices_ && dst < num_vertices_,
                 "edge (" << src << "," << dst << ") out of range, n="
                          << num_vertices_);
  edges_.push_back({src, dst, w});
}

void Builder::reserve_edges(u64 edges) {
  edges_.reserve(static_cast<usize>(
      std::min<u64>(edges, edges_.max_size())));
}

Csr Builder::build(const BuildOptions& opt) {
  const std::vector<Edge> edges = std::move(edges_);
  edges_.clear();
  return from_edges(num_vertices_, edges, opt);
}

Csr from_edges(vidx num_vertices, const std::vector<Edge>& edges,
               const BuildOptions& opt) {
  return build_from_chunks(
      VectorChunkSource(num_vertices, edges, build_threads()), opt);
}

}  // namespace eclp::graph
