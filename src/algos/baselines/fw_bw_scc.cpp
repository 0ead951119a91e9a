#include "algos/baselines/fw_bw_scc.hpp"

#include <vector>

#include "algos/common.hpp"
#include "graph/transforms.hpp"
#include "sim/operators.hpp"

namespace eclp::algos::baselines {

namespace {

constexpr vidx kNoRegion = kNoVertex;

}  // namespace

FwBwResult fw_bw_scc(sim::Device& dev, const graph::Csr& g,
                     u32 threads_per_block) {
  ECLP_CHECK_MSG(g.directed(), "fw_bw_scc expects a directed graph");
  const vidx n = g.num_vertices();
  const auto gt = graph::transpose(g);

  FwBwResult res;
  res.scc_id.assign(n, kNoVertex);
  const u64 cycles_before = dev.total_cycles();

  // region[v]: which pending partition v belongs to; kNoRegion once settled.
  std::vector<vidx> region(n, 0);
  std::vector<vidx> pending = {0};  // region ids awaiting processing
  vidx next_region = 1;
  const auto vertex_cfg = blocks_for(std::max<u64>(n, 1), threads_per_block);

  // Reachability marks, reused across phases.
  std::vector<u8> fwd(n, 0), bwd(n, 0);

  // Level-synchronous BFS restricted to `r`, marking `mark`. Frontier-based
  // so each level costs only its frontier, not the whole vertex set.
  std::vector<vidx> frontier, next_frontier;
  const auto bfs = [&](const graph::Csr& adj, vidx source, vidx r,
                       std::vector<u8>& mark) {
    mark[source] = 1;
    frontier.assign(1, source);
    while (!frontier.empty()) {
      ++res.bfs_launches;
      next_frontier.clear();
      sim::ops::compute(dev, "fwbw_bfs",
                        blocks_for(frontier.size(), threads_per_block),
                        frontier.size(), [&](sim::ThreadCtx& ctx, vidx i) {
        const vidx v = frontier[i];
        ctx.charge_coalesced_reads(1);
        for (const vidx w : adj.neighbors(v)) {
          ctx.charge_reads(2);
          if (region[w] == r && !mark[w]) {
            ctx.charge_writes(1);
            mark[w] = 1;
            next_frontier.push_back(w);
          }
        }
      });
      frontier.swap(next_frontier);
      dev.host_op();  // frontier-size readback for the next launch
    }
  };

  while (!pending.empty()) {
    const vidx r = pending.back();
    pending.pop_back();

    // --- trim: vertices with no live in- or out-neighbor are singletons ---
    bool trimmed = true;
    while (trimmed) {
      ++res.trim_rounds;
      trimmed = false;
      sim::ops::compute(dev, "fwbw_trim", vertex_cfg, n,
                        [&](sim::ThreadCtx& ctx, vidx v) {
        ctx.charge_coalesced_reads(1);
        if (region[v] != r) return;
        bool has_in = false, has_out = false;
        for (const vidx w : g.neighbors(v)) {
          ctx.charge_reads(1);
          if (region[w] == r) {
            has_out = true;
            break;
          }
        }
        for (const vidx w : gt.neighbors(v)) {
          ctx.charge_reads(1);
          if (region[w] == r) {
            has_in = true;
            break;
          }
        }
        if (!has_in || !has_out) {
          ctx.charge_writes(2);
          res.scc_id[v] = v;  // singleton SCC
          region[v] = kNoRegion;
          trimmed = true;
        }
      });
      dev.host_op();
    }

    // --- pivot selection: first live vertex of the region -----------------
    vidx pivot = kNoVertex;
    for (vidx v = 0; v < n; ++v) {
      if (region[v] == r) {
        pivot = v;
        break;
      }
    }
    dev.host_op();  // pivot readback
    if (pivot == kNoVertex) continue;  // region fully trimmed
    ++res.pivots;

    // --- forward and backward reachability ---------------------------------
    bfs(g, pivot, r, fwd);
    bfs(gt, pivot, r, bwd);

    // --- partition: F∩B is the pivot's SCC; three remainders recurse ------
    const vidx r_fwd = next_region++;
    const vidx r_bwd = next_region++;
    const vidx r_rest = next_region++;
    u64 fwd_count = 0, bwd_count = 0, rest_count = 0;
    sim::ops::compute(dev, "fwbw_partition", vertex_cfg, n,
                      [&](sim::ThreadCtx& ctx, vidx v) {
      ctx.charge_coalesced_reads(1);
      if (region[v] != r) return;
      ctx.charge_reads(2);
      ctx.charge_writes(1);
      if (fwd[v] && bwd[v]) {
        res.scc_id[v] = pivot;
        region[v] = kNoRegion;
      } else if (fwd[v]) {
        region[v] = r_fwd;
        fwd_count++;
      } else if (bwd[v]) {
        region[v] = r_bwd;
        bwd_count++;
      } else {
        region[v] = r_rest;
        rest_count++;
      }
      fwd[v] = 0;
      bwd[v] = 0;
    });
    dev.host_op();
    if (fwd_count > 0) pending.push_back(r_fwd);
    if (bwd_count > 0) pending.push_back(r_bwd);
    if (rest_count > 0) pending.push_back(r_rest);
  }

  res.modeled_cycles = dev.total_cycles() - cycles_before;
  std::vector<u8> seen(n, 0);
  for (vidx v = 0; v < n; ++v) {
    ECLP_CHECK_MSG(res.scc_id[v] != kNoVertex, "FW-BW left vertex " << v
                                                                    << " open");
    if (!seen[res.scc_id[v]]) {
      seen[res.scc_id[v]] = 1;
      res.num_sccs++;
    }
  }
  return res;
}

}  // namespace eclp::algos::baselines
