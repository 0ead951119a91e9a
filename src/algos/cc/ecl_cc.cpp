#include "algos/cc/ecl_cc.hpp"

#include <algorithm>

#include "algos/common.hpp"
#include "graph/properties.hpp"
#include "profile/session.hpp"
#include "sim/operators.hpp"

namespace eclp::algos::cc {

namespace {

/// representative() from ECL-CC: walk the parent chain, shortcutting visited
/// links to their grandparent (intermediate pointer jumping).
vidx representative(sim::ThreadCtx& ctx, sim::DeviceVector<vidx>& nstat,
                    vidx v, Profile& prof) {
  prof.representative_calls++;
  const vidx start = ctx.load(nstat[v]);
  vidx curr = start;
  if (curr != v) {
    vidx prev = v;
    vidx next;
    while (curr > (next = ctx.load(nstat[curr]))) {
      ctx.store(nstat[prev], next);
      prev = curr;
      curr = next;
    }
    prof.representative_moved += (curr != start) ? 1 : 0;
  }
  return curr;
}

/// Hook the components of v and neighbor u (u < v). Both reps walk down via
/// atomicCAS until the two chains meet (ECL-CC's lock-free union).
void hook(sim::ThreadCtx& ctx, sim::DeviceVector<vidx>& nstat, vidx vstat,
          vidx ostat, Profile& prof) {
  bool repeat;
  do {
    repeat = false;
    if (vstat != ostat) {
      prof.hook_attempts++;
      if (vstat < ostat) {
        const vidx ret = ctx.atomic_cas(nstat[ostat], ostat, vstat);
        if (ret != ostat) {
          prof.hook_cas_failure++;
          ostat = ret;
          repeat = true;
        } else {
          prof.hook_cas_success++;
        }
      } else {
        const vidx ret = ctx.atomic_cas(nstat[vstat], vstat, ostat);
        if (ret != vstat) {
          prof.hook_cas_failure++;
          vstat = ret;
          repeat = true;
        } else {
          prof.hook_cas_success++;
        }
      }
    }
  } while (repeat);
}

/// Walk to the representative without charging: used by the non-leader
/// lanes of a warp/block-per-vertex kernel, which receive the value lane 0
/// computed via a register broadcast instead of redoing the chase.
vidx representative_uncharged(const sim::DeviceVector<vidx>& nstat, vidx v) {
  vidx curr = nstat[v];
  while (curr != nstat[curr]) curr = nstat[curr];
  return curr;
}

}  // namespace

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt) {
  ECLP_CHECK_MSG(!g.directed(), "ECL-CC expects an undirected graph");
  profile::ScopedSpan algo_span("ecl-cc", profile::SpanKind::kAlgorithm);
  const vidx n = g.num_vertices();
  Result res;
  res.profile = Profile{};
  Profile& prof = res.profile;
  sim::DeviceVector<vidx> nstat(n);

  const u64 cycles_before = dev.total_cycles();
  if (opt.record_per_vertex_traversals) {
    res.init_traversal_per_vertex.assign(n, 0);
  }

  // --- init kernel ----------------------------------------------------------
  // Original: scan the adjacency list for the first smaller neighbor.
  // Optimized (§6.2.2): adjacency is sorted, so only the first entry can be
  // the first smaller neighbor.
  //
  // Every thread writes only its own vertices' slots, so the launch is
  // block-independent; the profile tallies go through per-block partials
  // summed in block order. (The compute and finalize kernels below are NOT
  // block-independent: hook() CAS outcomes and finalize chain lengths depend
  // on cross-block write visibility, so they stay sequential.)
  sim::LaunchConfig init_cfg = blocks_for(n, opt.threads_per_block);
  init_cfg.block_independent = true;
  std::vector<u64> initialized_pb(init_cfg.blocks, 0);
  std::vector<u64> traversed_pb(init_cfg.blocks, 0);
  profile::ScopedSpan init_span("init");
  // The init scan's neighbor traversal short-circuits (first smaller
  // neighbor wins), so it is a compute over vertices rather than an
  // advance over edges.
  sim::ops::compute(
      dev, "cc_init", init_cfg, n, [&](sim::ThreadCtx& ctx, vidx v) {
        initialized_pb[ctx.block_idx()]++;
        const auto nbrs = g.neighbors(v);
        ctx.charge_coalesced_reads(2);  // row offsets, streaming
        vidx label = v;
        u64 traversed = 0;
        if (opt.init_mode == InitMode::kOwnId) {
          // Baseline: no neighbor scan, all merging left to the
          // compute kernels.
        } else if (opt.optimized_init) {
          if (!nbrs.empty()) {
            ++traversed;
            ctx.charge_reads(1);
            if (nbrs[0] < v) label = nbrs[0];
          }
        } else {
          for (const vidx u : nbrs) {
            ++traversed;
            ctx.charge_reads(1);
            if (u < v) {
              label = u;
              break;
            }
          }
        }
        traversed_pb[ctx.block_idx()] += traversed;
        if (opt.record_per_vertex_traversals) {
          res.init_traversal_per_vertex[v] = traversed;
        }
        nstat[v] = label;
        ctx.charge_coalesced_writes(1);  // own slot, streaming
      });
  for (const u64 c : initialized_pb) prof.vertices_initialized += c;
  for (const u64 c : traversed_pb) prof.init_neighbors_traversed += c;
  res.init_cycles = dev.total_cycles() - cycles_before;
  init_span.end();

  // --- degree binning --------------------------------------------------------
  profile::ScopedSpan binning_span("degree binning");
  std::vector<vidx> low_bin, mid_bin, high_bin;
  for (vidx v = 0; v < n; ++v) {
    const vidx d = g.degree(v);
    if (d < opt.low_degree_limit) {
      low_bin.push_back(v);
    } else if (d < opt.high_degree_limit) {
      mid_bin.push_back(v);
    } else {
      high_bin.push_back(v);
    }
  }
  prof.low_bin_vertices = low_bin.size();
  prof.mid_bin_vertices = mid_bin.size();
  prof.high_bin_vertices = high_bin.size();
  binning_span.end();

  // --- compute kernels (3, customized per degree bin; paper §2.1) -----------
  // All three are one advance shape at different cooperative widths
  // (thread/warp/block per vertex): lane 0 resolves the vertex's
  // representative and the other lanes receive it by broadcast (one ALU
  // step), as the warp-cooperative original does; every lane then stripes
  // the adjacency list. Adjacency scans coalesce across the cooperating
  // lanes — the scattered traffic of this stage is the union-find pointer
  // chasing inside representative()/hook().
  profile::ScopedSpan compute_span("compute");
  const auto enter = [&](sim::ThreadCtx& ctx, vidx v, u32 lane) -> vidx {
    if (lane == 0) return representative(ctx, nstat, v, prof);
    ctx.charge_alu(1);
    return representative_uncharged(nstat, v);
  };
  const auto edge = [&](sim::ThreadCtx& ctx, vidx& vstat0, vidx v, vidx u) {
    if (u < v) {  // each undirected edge handled once, from the larger side
      const vidx ostat = representative(ctx, nstat, u, prof);
      hook(ctx, nstat, vstat0, ostat, prof);
    }
  };
  using Shape = sim::ops::AdvanceShape;
  constexpr u32 kWarp = sim::Device::kWarpSize;
  if (!low_bin.empty()) {
    sim::ops::advance(dev, "cc_compute_low",
                      blocks_for(low_bin.size(), opt.threads_per_block), g,
                      low_bin, Shape{.width = 1}, enter, edge);
  }
  if (!mid_bin.empty()) {
    const u64 items = static_cast<u64>(mid_bin.size()) * kWarp;
    sim::ops::advance(dev, "cc_compute_mid",
                      blocks_for(items, opt.threads_per_block), g, mid_bin,
                      Shape{.width = kWarp}, enter, edge);
  }
  if (!high_bin.empty()) {
    const u32 width = opt.threads_per_block;
    const u64 items = static_cast<u64>(high_bin.size()) * width;
    sim::ops::advance(dev, "cc_compute_high",
                      blocks_for(items, opt.threads_per_block), g, high_bin,
                      Shape{.width = width}, enter, edge);
  }

  compute_span.end();

  // --- finalize: full pointer jumping ----------------------------------------
  profile::ScopedSpan finalize_span("finalize");
  sim::ops::compute(dev, "cc_finalize",
                    blocks_for(n, opt.threads_per_block), n,
                    [&](sim::ThreadCtx& ctx, vidx v) {
                      vidx curr = ctx.load(nstat[v]);
                      while (curr != nstat[curr]) {
                        curr = ctx.load(nstat[curr]);
                      }
                      ctx.store(nstat[v], curr);
                    });

  res.modeled_cycles = dev.total_cycles() - cycles_before;
  res.labels = std::move(nstat);
  return res;
}

std::vector<vidx> reference_labels(const graph::Csr& g) {
  return graph::connected_component_labels(g);
}

bool verify(const graph::Csr& g, std::span<const vidx> labels) {
  if (labels.size() != g.num_vertices()) return false;
  const auto ref = reference_labels(g);
  const auto norm = normalize_labels(labels);
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    if (norm[v] != ref[v]) return false;
  }
  return true;
}

}  // namespace eclp::algos::cc
