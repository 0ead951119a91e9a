// Edge-list (COO) staging and conversion to CSR.
//
// Generators and transforms that produce edges one at a time stage them in
// this builder; build() hands the staged vector to the one CSR assembly
// pipeline, build_from_chunks (graph/stream_build.hpp), which handles
// symmetrization, deduplication, self-loop removal, and adjacency sorting.
// Sorted adjacency matters to the algorithms: ECL-CC's init heuristic
// relies on the smallest neighbor appearing first (paper §6.1.3).
//
// The output is a pure function of the staged edge sequence: the same
// bytes at any build thread count (ECLP_BUILD_THREADS /
// eclp::set_build_threads, support/parallel_for.hpp), pinned for the whole
// input suite by tests/ingest_test.cpp.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace eclp::graph {

struct Edge {
  vidx src = 0;
  vidx dst = 0;
  weight_t w = 0;
  bool operator==(const Edge&) const = default;
};

struct BuildOptions {
  bool directed = false;       ///< keep arcs as given (true) or mirror (false)
  bool weighted = false;       ///< carry edge weights into the CSR
  bool remove_self_loops = true;
  bool dedupe = true;  ///< drop parallel edges (keep first weight)
  // Adjacency lists always come out sorted ascending by id, as if by one
  // stable sort by (src, dst); the sorted order is load-bearing for
  // ECL-CC's init heuristic (paper §6.1.3).
};

class Builder {
 public:
  explicit Builder(vidx num_vertices) : num_vertices_(num_vertices) {}

  vidx num_vertices() const { return num_vertices_; }

  /// Add one arc (or one undirected edge — the mirror is emitted right
  /// after it during build()).
  void add(vidx src, vidx dst, weight_t w = 0);

  /// Capacity hint: generators that know (or can estimate) their edge
  /// count call this once before emitting. Deliberately u64 — huge-scale
  /// estimates are computed in 64 bits; the builder clamps to what the
  /// address space can hold.
  void reserve_edges(u64 edges);

  /// Assemble the CSR. The builder is left empty afterwards.
  Csr build(const BuildOptions& opt = {});

 private:
  vidx num_vertices_;
  std::vector<Edge> edges_;
};

/// Build a CSR from an edge list (undirected and unweighted by default).
Csr from_edges(vidx num_vertices, const std::vector<Edge>& edges,
               const BuildOptions& opt = {});

}  // namespace eclp::graph
