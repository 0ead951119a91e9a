// Vertex reordering utilities.
//
// Vertex numbering is load-bearing throughout the paper's observations:
// sorted adjacency plus id order drives ECL-CC's init behaviour (Table 4),
// and the spatial locality of mesh numberings is what keeps ECL-SCC's
// signature propagation inside thread blocks (Figure 1). These helpers
// compute standard orders and quantify how local a numbering is.
//
// Each function returns a permutation `perm` with new_id = perm[old_id],
// suitable for graph::relabel().
#pragma once

#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "support/prng.hpp"

namespace eclp::graph {

/// Descending-degree order (LDF-style; hubs get small ids).
std::vector<vidx> order_by_degree_desc(const Csr& g);

/// BFS order from `source`; on multi-component graphs the BFS restarts
/// from the lowest-id unvisited vertex until every vertex is ranked — the
/// Cuthill-McKee-style bandwidth reducer; neighbors are visited in
/// ascending-degree order.
std::vector<vidx> order_bfs(const Csr& g, vidx source = 0);

/// Uniformly random permutation (destroys locality; the numbering of the
/// paper's grid inputs behaves like this).
std::vector<vidx> order_random(const Csr& g, u64 seed);

/// Morton (Z-order) numbering for a side x side grid-embedded graph whose
/// current ids are row-major: consecutive ids cover compact 2D patches.
std::vector<vidx> order_morton_grid(u32 side);

/// Hub sorting: vertices whose degree exceeds the mean get the lowest ids,
/// sorted by descending degree (ties by id); the tail keeps its original
/// relative order. The classic push-based mitigation for power-law graphs —
/// hot hub state packs into few cache lines while the (already cold) tail
/// is left untouched.
std::vector<vidx> order_hub(const Csr& g);

/// Degree-bucketed hub clustering: vertices are grouped into
/// floor(log2(degree+1)) buckets, buckets emitted from hottest (highest
/// degree) to coldest, original id order within each bucket. Coarser than
/// order_hub — same-temperature vertices cluster without fully sorting,
/// preserving more of the input's own locality inside each bucket.
std::vector<vidx> order_hub_cluster(const Csr& g);

/// Gorder-style greedy sliding-window order: repeatedly append the vertex
/// with the most direct-neighbor + shared-neighbor (sibling) affinity to
/// the last `window` placed vertices. Sibling expansion skips hubs (degree
/// > max(64, 8 * mean)), Gorder's own trick against quadratic work on
/// power-law inputs. Scores live in an indexed max-heap of the vertices
/// with a positive score, so the cost is O(U log A): U score updates (one
/// per direct arc and per non-hub two-hop path out of each vertex entering
/// or leaving the window) and A the most vertices with a positive score at
/// once. Deterministic: ties break to the lowest vertex id, and with no
/// positive score left the lowest unplaced id comes next.
std::vector<vidx> order_gorder(const Csr& g, u32 window = 8);

/// A parsed reordering specification (the `--reorder=<spec>` grammar):
///   "natural" (or "")   keep the input numbering
///   "random[:SEED]"     order_random (default seed 1)
///   "bfs"               order_bfs from vertex 0
///   "degree"            order_by_degree_desc
///   "hub"               order_hub
///   "hubcluster"        order_hub_cluster
///   "gorder[:WINDOW]"   order_gorder (default window 8)
struct ReorderSpec {
  enum class Kind : u8 {
    kNatural,
    kRandom,
    kBfs,
    kDegree,
    kHub,
    kHubCluster,
    kGorder,
  };
  Kind kind = Kind::kNatural;
  u64 seed = 1;    ///< random only
  u32 window = 8;  ///< gorder only
  /// Parse a spec string; throws CheckFailure on anything else.
  static ReorderSpec parse(const std::string& spec);
  /// Canonical spec string ("natural", "random:1", "gorder:8", ...);
  /// stable, so it is safe to mix into cache/pool keys.
  std::string canonical() const;
  bool is_natural() const { return kind == Kind::kNatural; }
};

/// Compute the permutation `spec` describes for `g` (identity for natural).
std::vector<vidx> make_order(const Csr& g, const ReorderSpec& spec);

/// Relabel `g` by `spec`. When a cache directory is configured the result
/// is memoized through the content-addressed graph cache (keyed by the
/// CSR's content hash + the canonical spec) so sweeps over many orders of
/// one input pay each ordering once. Natural specs return `g` unchanged.
Csr apply_reorder(const Csr& g, const ReorderSpec& spec);

/// The shared reorder sweep used by bench_reorder and
/// bench_ablation_numbering: natural, random, bfs, degree, hub, gorder —
/// one canonical list so the two benches cannot drift.
const std::vector<ReorderSpec>& reorder_suite();

/// Mean absolute id distance across edges, normalized by vertex count:
/// ~0 for perfectly local numberings, ~1/3 for random ones.
double locality_score(const Csr& g);

/// Fraction of arcs whose endpoints fall into the same aligned id-block of
/// `block_size` vertices — a direct proxy for "does signature propagation
/// stay inside a thread block" (paper §6.1.2). Morton-numbered meshes score
/// high at GPU block sizes; row-major strips and random orders score low.
double block_affinity(const Csr& g, vidx block_size);

}  // namespace eclp::graph
