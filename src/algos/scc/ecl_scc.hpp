// ECL-SCC: strongly connected components (Alabandi, Sands, Biros &
// Burtscher, SC'23), ported to the simulated device.
//
// Structure follows the paper's §2.5 — every iteration of the outer loop
// (counter m) runs three stages on the not-yet-settled subgraph:
//  * signature initialization — every live vertex sets both signatures,
//    v_in and v_out, to its own id (all vertices act as pivots at once);
//  * maximum-value propagation — for every live edge (u -> w),
//    v_out[u] <- max(v_out[u], v_out[w]) and v_in[w] <- max(v_in[w],
//    v_in[u]), repeated to a fixed point. Propagation is block-level: each
//    thread block loops over its slice of the edge array until no thread in
//    the block updates anything (a __syncthreads do-while); the grid
//    relaunches (counter n) until a whole launch makes no update;
//  * edge removal / matching — vertices with v_in == v_out belong to the
//    SCC identified by that value and are settled; edges whose endpoint
//    signature pairs differ cannot be intra-SCC and are removed.
//
// Figure 1 instrumentation: the number of signature updates performed by
// each thread block during every propagation iteration (m, n), captured in
// a profile::BlockSeries when Options::record_series is set.
//
// Table 6 reproduces by sweeping Options::threads_per_block: small blocks
// under-propagate (more grid relaunches), large blocks keep idle threads in
// block-wide synchronization (more inner-loop overhead) — both costs fall
// out of the simulator's cost model.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "profile/series.hpp"
#include "sim/device.hpp"

namespace eclp::algos::scc {

struct Options {
  u32 threads_per_block = 512;  ///< the original's default (paper Table 6)
  /// Record per-block update counts for every (m, n) (Figure 1).
  bool record_series = false;
  /// Edges per thread in the propagation kernel.
  u32 edges_per_thread = 1;
  /// Trimming: before each propagation round, settle live vertices with no
  /// live in-arc or no live out-arc as singleton SCCs (they cannot be on
  /// any cycle). A standard FW-BW-era optimization that composes with the
  /// signature scheme; off by default to match the paper's base code.
  bool trim = false;
};

struct Result {
  /// SCC identifier per vertex (a member's id).
  sim::DeviceVector<vidx> scc_id;
  usize num_sccs = 0;
  u32 outer_iterations = 0;             ///< final m
  std::vector<u32> inner_per_outer;     ///< propagation launches (n) per m
  profile::BlockSeries series;          ///< per-block updates (Figure 1)
  u64 modeled_cycles = 0;
  u64 trimmed_vertices = 0;  ///< singletons settled by trimming (if enabled)
};

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt = {});

/// Tarjan's algorithm (iterative), as the sequential reference.
std::vector<vidx> reference_scc(const graph::Csr& g);

/// True when `scc_id` induces the same partition as Tarjan's.
bool verify(const graph::Csr& g, std::span<const vidx> scc_id);

}  // namespace eclp::algos::scc
