// ECL-MST: minimum spanning tree/forest (Fallin, Gonzalez, Seo & Burtscher,
// SC'23), ported to the simulated device.
//
// Structure follows the paper's §2.4 — Borůvka-style, edge-centric:
//  * initialization — every vertex is its own set (union-find), the worklist
//    holds all unique edges; for denser graphs, edges heavier than a
//    threshold are deferred ("Filter" handling);
//  * iterative construction — each round,
//      K1: every worklist edge whose endpoints are in different sets
//          competes, via atomicMin, to be the lightest edge of each
//          endpoint's set. A non-atomic pre-check skips the atomic when the
//          edge is already heavier than the current minimum — the cause of
//          the conflict/useless-atomic trends in the paper's Figure 2;
//      K2: each set's winning edge joins the MST and the sets are united
//          (atomicCAS hooking with path compression);
//      K3: the worklist is compacted, dropping intra-set edges; when the
//          light worklist is exhausted but multiple sets remain, the
//          deferred heavy edges are filtered in ("Filter" iterations).
//
// Launch configuration: the original launches K1/K3 with a block count
// computed from the *initial* worklist size — the paper's §6.1.4 finding.
// Options::corrected_launch recomputes the block count from the current
// worklist each round, charging one host operation (the device-to-host size
// readback) per recomputation, reproducing the trade-off of Table 8.
#pragma once

#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "sim/device.hpp"

namespace eclp::algos::mst {

struct Options {
  u32 threads_per_block = 256;
  /// Recompute the launch geometry from the live worklist size each
  /// iteration (paper §6.2.3). Costs one host_op per recomputation.
  bool corrected_launch = false;
  /// Light/heavy split percentile for the filter step, in [0, 100]
  /// (0 disables; run() rejects anything else, NaN included).
  double filter_percentile = 50.0;
  /// Record per-iteration metrics (Figure 2). Off by default: tracking
  /// conflicts stores one event per atomic.
  bool record_iteration_metrics = false;
};

/// One bar group of the paper's Figure 2.
struct IterationMetrics {
  std::string kind;  ///< "Regular" or "Filter"
  u32 index = 0;     ///< iteration number within its kind
  u64 launched_threads = 0;
  u64 threads_with_work = 0;   ///< edge spans two sets
  u64 conflicting_threads = 0; ///< atomics contended with another thread
  u64 atomic_attempts = 0;
  u64 useless_atomics = 0;     ///< ineffective atomicMin + failed CAS

  double pct_with_work() const {
    return launched_threads
               ? 100.0 * static_cast<double>(threads_with_work) /
                     static_cast<double>(launched_threads)
               : 0.0;
  }
  double pct_conflicting() const {
    return launched_threads
               ? 100.0 * static_cast<double>(conflicting_threads) /
                     static_cast<double>(launched_threads)
               : 0.0;
  }
  double pct_useless_atomics() const {
    return atomic_attempts
               ? 100.0 * static_cast<double>(useless_atomics) /
                     static_cast<double>(atomic_attempts)
               : 0.0;
  }
};

struct Result {
  sim::DeviceVector<u8> in_mst;  ///< flag per unique edge (see unique_edges())
  u64 total_weight = 0;
  usize mst_edges = 0;
  /// K1-K3 rounds run, Regular and Filter together; counted whether or not
  /// the per-iteration metrics are recorded.
  u64 host_iterations = 0;
  std::vector<IterationMetrics> iterations;
  u64 modeled_cycles = 0;
};

/// A unique undirected edge (u < v) with its weight and stable id.
struct UniqueEdge {
  vidx u, v;
  weight_t w;
};

/// Extract the unique-edge list (u < v) of a weighted undirected graph in a
/// deterministic order; the Result::in_mst flags index into this.
std::vector<UniqueEdge> unique_edges(const graph::Csr& g);

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt = {});

/// Kruskal reference: total weight of a minimum spanning forest.
u64 reference_total_weight(const graph::Csr& g);

/// Full verification: the flagged edges form a spanning forest of minimum
/// total weight (weight compared against Kruskal).
bool verify(const graph::Csr& g, const Result& result);

}  // namespace eclp::algos::mst
