// Structural graph transforms.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/prng.hpp"

namespace eclp::graph {

/// Reverse every arc. The result is directed (transpose of an undirected
/// graph equals the graph itself, so this is mainly for SCC inputs).
Csr transpose(const Csr& g);

/// Make a directed graph undirected by mirroring every arc (dedupes).
Csr symmetrize(const Csr& g);

/// Drop self-loops, keep everything else.
Csr remove_self_loops(const Csr& g);

/// Apply a vertex relabeling: new_id = perm[old_id]. `perm` must be a
/// permutation of [0, n). Adjacency lists are re-sorted.
Csr relabel(const Csr& g, std::span<const vidx> perm);

/// Induced subgraph on `keep` (ids are compacted in `keep` order).
Csr induced_subgraph(const Csr& g, std::span<const vidx> keep);

/// Assign deterministic pseudo-random weights in [1, max_weight] to an
/// unweighted graph; symmetric edges get equal weights (hash of the
/// unordered endpoint pair), as MST requires.
Csr with_random_weights(const Csr& g, u64 seed, weight_t max_weight = 1u << 20);

/// True if every arc u->v has a reverse arc v->u.
bool is_symmetric(const Csr& g);

}  // namespace eclp::graph
