// ECL-MIS: maximal independent set (Burtscher et al., TOPC'18), ported to
// the simulated device.
//
// Structure follows the paper's §2.3:
//  * initialization — each vertex gets a compact one-byte value encoding
//    status and priority; the priority favors low-degree vertices and uses a
//    hash of the vertex id to break ties, forming a deterministic partial
//    permutation;
//  * selection — a fixed grid of persistent threads owns vertices
//    round-robin; each thread repeatedly processes its undecided vertices:
//    a vertex whose priority beats all undecided neighbors goes "in" and its
//    neighbors go "out". Updates are monotonic (undecided -> decided), so no
//    synchronization is needed; threads run until all their vertices are
//    decided.
//
// The kernel runs under the simulator's *cooperative* launch: each step is
// one iteration of a thread's outer loop, and the scheduler interleaves
// steps across threads — in shuffled mode, in a seed-dependent order, which
// reproduces the internal nondeterminism the paper studies in Table 3.
//
// Per-thread counters (paper Table 2): vertices assigned, iterations
// executed, vertices finalized.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "profile/counters.hpp"
#include "sim/device.hpp"

namespace eclp::algos::mis {

/// Status byte values (the one-byte packing of paper §2.3). Undecided
/// vertices carry their priority band in [kUndecidedBase, kUndecidedTop].
inline constexpr u8 kOut = 0;
inline constexpr u8 kIn = 255;
inline constexpr u8 kUndecidedBase = 2;
inline constexpr u8 kUndecidedTop = 250;

/// How quickly one thread's status updates become visible to others.
enum class Visibility : u8 {
  /// Updates visible immediately (sequential Gauss-Seidel sweep). Converges
  /// unrealistically fast compared to a GPU, where 200k concurrent threads
  /// mostly observe state from before their scheduling quantum.
  kImmediate,
  /// Updates published at round boundaries (Jacobi). Models the bounded
  /// staleness of massively parallel execution; safe for MIS because the
  /// priority order is total, so two adjacent vertices can never both win a
  /// round against stale views of each other. This is the default and the
  /// mode used to reproduce the paper's Tables 2-3.
  kRoundSnapshot,
};

/// What drives a vertex's selection priority (all are total orders).
enum class Priority : u8 {
  /// ECL-MIS: favor low degree, hash tie-break (grows the MIS; default).
  kDegreeAware,
  /// Luby-style static uniform randomness (hash of the id).
  kUniformHash,
  /// Plain vertex id (the naive order; biased and usually smaller sets).
  kVertexId,
};

struct Options {
  /// Fixed persistent grid (the paper's kernel launches one fixed-size grid
  /// and assigns vertices round-robin).
  u32 blocks = 64;
  u32 threads_per_block = 256;
  Visibility visibility = Visibility::kRoundSnapshot;
  Priority priority = Priority::kDegreeAware;
  /// Work-quantum pacing of the asynchronous threads: every scheduler round
  /// models one fixed wall-clock quantum of `quantum` work units (status
  /// reads), and a thread executes as many outer-loop iterations as fit.
  /// Threads with little work per iteration therefore re-check their
  /// conditions "over and over" exactly as the paper observes on its
  /// smallest inputs (§6.1.1: high max iteration counts on `internet`).
  /// The quantum is an absolute constant — hardware speed does not scale
  /// with the input. 0 disables pacing (one iteration per round).
  u64 quantum = 48;
  /// In round-snapshot mode, how many times per round the published
  /// snapshot refreshes. Real GPU threads observe updates with bounded —
  /// not full-round — staleness; one refresh per quarter round keeps
  /// convergence between the Jacobi and Gauss-Seidel extremes.
  u32 snapshot_refreshes_per_round = 12;
};

/// Per-thread metrics matching the columns of the paper's Table 2.
struct ThreadMetrics {
  stats::Summary iterations;         ///< Avg / Max iterations
  stats::Summary vertices_assigned;  ///< Avg (same for all threads +-1)
  stats::Summary vertices_finalized; ///< Avg / Max
};

struct Result {
  sim::DeviceVector<u8> status;  ///< kIn / kOut per vertex
  usize set_size = 0;
  ThreadMetrics metrics;
  u64 modeled_cycles = 0;
};

/// Compute the priority byte of a vertex: low degree => high priority, ties
/// broken by a hash of the id (exposed for tests).
u8 priority_byte(vidx v, vidx degree);

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt = {});

/// Sequential greedy reference MIS (for size comparison in tests).
std::vector<u8> reference_greedy(const graph::Csr& g);

/// True when `status` marks a maximal independent set of g.
bool verify(const graph::Csr& g, std::span<const u8> status);

}  // namespace eclp::algos::mis
