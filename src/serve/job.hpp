// The job runner: the one place a Request becomes a result.
//
// Every front end runs a job in the same two steps:
//
//   prepare_graph(req)        suite input or graph file -> the CSR the
//                             algorithm wants (directedness, MST weights,
//                             reorder)
//   run_job(dev, g, req)      run the algorithm, summarize, checksum the
//                             solution vector, optionally verify it
//
// eclp-serve puts graph::Pool::acquire between the two, so a prepared graph
// is shared by every request with the same pool key; eclp-run calls them
// back to back; bench_reorder prepares its own reordered graphs and calls
// only run_job. A served response and the eclp-run line for the same
// request therefore agree by construction.
#pragma once

#include <string>

#include "graph/csr.hpp"
#include "serve/request.hpp"
#include "sim/device.hpp"

namespace eclp::serve {

/// Build the graph `req` names, ready for its algorithm:
///  1. SCC needs a directed graph; an undirected one is a CheckFailure whose
///     text (no source location) reaches the golden-pinned response files.
///  2. Every other algorithm runs on the symmetrized graph.
///  3. MST on an unweighted graph gets random weights from weights_seed.
///     They go on before reordering: with_random_weights hashes endpoint
///     ids, so the weights are permuted with the graph and every reorder of
///     one input solves an isomorphic weighted problem.
///  4. The reorder comes last. Natural order leaves the graph as built.
/// When `notes` is set, one "note: ..." line per step 2-4 that changed the
/// graph is appended to it (eclp-run prints them).
graph::Csr prepare_graph(const Request& req, std::string* notes = nullptr);

/// The Device `req` runs on: its LLC spec, and the shuffled schedule when
/// its seed is nonzero.
sim::Device make_device(const Request& req);

struct JobOutcome {
  std::string summary;   ///< deterministic one-line result, "CC: 5 components"
  u64 modeled_cycles = 0;
  std::string checksum;  ///< 32-hex fingerprint of the solution vector
  bool verified = true;  ///< false only when req.verify and the check failed
  /// eclp-run's extras: the clause it prints right after `summary` (MIS's
  /// iteration avg/max, MST's round count), and the lines after its result
  /// line (CC's init traversals, then the verification note).
  std::string detail;
  std::string after;
};

/// Run req.algo on `g` (as prepare_graph left it) on `dev`.
JobOutcome run_job(sim::Device& dev, const graph::Csr& g, const Request& req);

}  // namespace eclp::serve
