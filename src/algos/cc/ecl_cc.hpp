// ECL-CC: connected components via union-find with intermediate pointer
// jumping (Jaiganesh & Burtscher, HPDC'18), ported to the simulated device.
//
// Structure follows the paper's §2.1:
//  * init kernel — label each vertex with the id of the first neighbor in
//    its (sorted) adjacency list that has a smaller id, else its own id;
//  * three compute kernels binned by degree (low / medium / high) that hook
//    components together with atomicCAS and shorten parent chains by
//    intermediate pointer jumping;
//  * finalize kernel — full pointer jumping so every vertex points at its
//    representative.
//
// Profiling counters (paper §3.2 and Table 4):
//  * vertices initialized / adjacency entries traversed in init,
//  * representative() calls and whether the return value moved down/up,
//  * hooking atomicCAS successes/failures.
//
// The optimized variant implements the paper's §6.2.2 fix: because
// adjacency lists are sorted, the first neighbor is the smallest, so init
// never needs to scan past it.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "sim/device.hpp"

namespace eclp::algos::cc {

/// What the init kernel writes into each vertex's label.
enum class InitMode : u8 {
  /// The id of the first smaller neighbor (the ECL-CC heuristic; §2.1).
  kFirstSmallerNeighbor,
  /// The vertex's own id — the naive baseline the heuristic improves on
  /// ("less work in the next phase compared to just using the vertex ID").
  kOwnId,
};

struct Options {
  u32 threads_per_block = 256;
  /// Degree bins for the three compute kernels.
  vidx low_degree_limit = 16;    ///< degree < limit  -> thread per vertex
  vidx high_degree_limit = 512;  ///< degree >= limit -> block per vertex
  /// Paper §6.2.2: init touches only the first neighbor.
  bool optimized_init = false;
  InitMode init_mode = InitMode::kFirstSmallerNeighbor;
  /// Also record the init traversal count of every vertex (the per-vertex
  /// data behind the paper's §6.1.3 claim that traversals are "either 1 or
  /// equal to the vertex's degree").
  bool record_per_vertex_traversals = false;
};

/// Counters collected when running instrumented (always collected; the
/// profiling framework's counters do not charge the cost model, so they are
/// free in modeled cycles — see profile/counters.hpp).
struct Profile {
  u64 vertices_initialized = 0;
  u64 init_neighbors_traversed = 0;  ///< Table 4 "vertices traversed"
  u64 representative_calls = 0;
  u64 representative_moved = 0;  ///< return value differed from the label
  u64 hook_attempts = 0;
  u64 hook_cas_success = 0;
  u64 hook_cas_failure = 0;
  u64 low_bin_vertices = 0;
  u64 mid_bin_vertices = 0;
  u64 high_bin_vertices = 0;
};

struct Result {
  sim::DeviceVector<vidx> labels;  ///< component representative per vertex
  Profile profile;
  u64 modeled_cycles = 0;
  u64 init_cycles = 0;  ///< init kernel's share (paper: 10-20% of runtime)
  /// Filled when Options::record_per_vertex_traversals is set.
  std::vector<u64> init_traversal_per_vertex;
};

/// Run ECL-CC on an undirected graph.
Result run(sim::Device& dev, const graph::Csr& g, const Options& opt = {});

/// Sequential reference labeling (BFS), normalized to smallest-member ids.
std::vector<vidx> reference_labels(const graph::Csr& g);

/// True when `labels` is a correct CC labeling of g.
bool verify(const graph::Csr& g, std::span<const vidx> labels);

}  // namespace eclp::algos::cc
