// Synthetic graph generators.
//
// The paper evaluates on 17 general inputs plus 5 directed meshes (Table 1).
// Those exact files are not redistributable here, so each *class* of input
// gets a generator that reproduces the structural properties the profiled
// behaviours depend on: degree distribution (average and skew), diameter
// class (road networks vs. power-law), adjacency-vs-id correlation
// (citation graphs: old vertices are cited by newer, larger ids), and
// clustering (co-authorship clique unions). DESIGN.md §2 records this
// substitution; EXPERIMENTS.md compares the generated stats against Table 1.
//
// All generators are deterministic functions of their seed. The uniform,
// R-MAT/Kronecker, and preferential-attachment families are the chunked
// streams of gen/stream.hpp built by graph::build_from_chunks, so each
// family yields the same edge sequence at every scale, scale=huge
// included, and never holds its edge list.
#pragma once

#include "graph/csr.hpp"
#include "support/types.hpp"

namespace eclp::gen {

/// 2D torus grid: every vertex has degree exactly 4 (paper's 2d-2e20.sym).
graph::Csr grid2d_torus(u32 side);

/// Triangulated grid: a torus grid plus one randomly-oriented diagonal per
/// cell. Degrees fall in 4..8, planar-like (paper's delaunay_n24 class).
graph::Csr triangulated_grid(u32 side, u64 seed);

/// Erdős–Rényi-style uniform random graph with ~`edges` undirected edges
/// (paper's r4-2e23.sym class).
graph::Csr uniform_random(vidx n, u64 edges, u64 seed);

/// RMAT recursive-matrix graph with partition probabilities (a,b,c) and
/// d = 1-a-b-c, symmetrized (paper's rmat16.sym / rmat22.sym class).
graph::Csr rmat(u32 scale, u64 edges, double a, double b, double c, u64 seed);

/// Graph500 Kronecker parameters (a=.57,b=.19,c=.19), symmetrized (paper's
/// kron_g500-logn21 class; extremely skewed degrees).
graph::Csr kronecker(u32 scale, u64 edges, u64 seed);

/// Preferential attachment (Barabási–Albert): each new vertex attaches to
/// `m` existing vertices chosen proportionally to degree (paper's community
/// / co-purchase graphs: amazon0601, soc-LiveJournal1 class).
graph::Csr preferential_attachment(vidx n, u32 m, u64 seed);

/// Internet-topology-like: preferential attachment with mostly 1-2
/// attachments and occasional bursts, giving avg degree ~3 with large hubs
/// (paper's internet / as-skitter class).
graph::Csr internet_topology(vidx n, u64 seed);

/// Citation graph: vertex ids follow publication time; vertex u cites
/// earlier vertices (< u), and with probability `p_no_citation` cites
/// nothing (dataset-boundary patents). After symmetrization, such vertices
/// see only larger-id neighbors — the behaviour behind the large
/// traversed/initialized gap the paper reports for cit-Patents (Table 4).
graph::Csr citation(vidx n, double avg_out, double p_no_citation, u64 seed);

/// Road network: spanning tree of a 2D grid plus a fraction `q` of the
/// remaining grid edges. Average degree ~2+2q, max <= 8, high diameter
/// (paper's USA-road / europe_osm class).
graph::Csr road_network(u32 side, double q, u64 seed);

/// Union of cliques ("papers") over n authors with Zipf-ish clique sizes in
/// [min_size, max_size]; dense and highly clustered (paper's coPapersDBLP /
/// citationCiteseer class).
graph::Csr clique_union(vidx n, usize cliques, u32 min_size, u32 max_size,
                        u64 seed);

/// Weblink-like graph: RMAT with strong locality plus host-level cliques
/// (paper's in-2004 class: high average degree, huge hubs).
graph::Csr weblink(vidx n, double avg_degree, u64 seed);

/// Chung-Lu random graph with a power-law expected degree sequence:
/// w_v ~ v^(-1/(exponent-1)) scaled so the mean is `avg_degree` and the
/// largest expected degree is `max_degree`. Gives direct control over the
/// d-avg / d-max pair Table 1 reports, which the growth models above only
/// hit approximately.
graph::Csr chung_lu(vidx n, double avg_degree, double exponent,
                    double max_degree, u64 seed);

}  // namespace eclp::gen
