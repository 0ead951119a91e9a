#include "algos/baselines/label_prop_cc.hpp"

#include "algos/common.hpp"
#include "sim/operators.hpp"

namespace eclp::algos::baselines {

LabelPropResult label_prop_cc(sim::Device& dev, const graph::Csr& g,
                              u32 threads_per_block) {
  ECLP_CHECK_MSG(!g.directed(), "label_prop_cc expects an undirected graph");
  const vidx n = g.num_vertices();
  LabelPropResult res;
  // Device memory, so the modeled LLC groups its lines by index, not by
  // where the host allocator happened to put the array.
  sim::DeviceVector<vidx> label(n);
  const u64 cycles_before = dev.total_cycles();

  const auto cfg = blocks_for(std::max<u64>(n, 1), threads_per_block);
  sim::ops::compute(dev, "lp_init", cfg, n, [&](sim::ThreadCtx& ctx, vidx v) {
    ctx.charge_coalesced_writes(1);
    label[v] = v;
  });

  bool changed = true;
  while (changed) {
    ++res.rounds;
    ECLP_CHECK_MSG(res.rounds <= n + 2, "label propagation diverged");
    changed = false;
    // Hook: every arc pulls the target's label toward the source's.
    sim::ops::compute(dev, "lp_hook", cfg, n,
                      [&](sim::ThreadCtx& ctx, vidx v) {
      ctx.charge_coalesced_reads(2);
      const vidx lv = label[v];
      for (const vidx u : g.neighbors(v)) {
        ctx.charge_coalesced_reads(1);
        ctx.charge_reads(1);  // label[u], scattered
        if (label[u] < lv) {
          if (ctx.atomic_min(label[v], label[u])) {
            res.label_updates++;
            changed = true;
          }
        }
      }
    });
    // Jump: one hop of pointer shortening accelerates convergence.
    sim::ops::compute(dev, "lp_jump", cfg, n,
                      [&](sim::ThreadCtx& ctx, vidx v) {
      ctx.charge_reads(2);
      const vidx l = label[v];
      if (label[l] < l) {
        ctx.charge_writes(1);
        label[v] = label[l];
        changed = true;
      }
    });
  }

  res.modeled_cycles = dev.total_cycles() - cycles_before;
  res.labels = std::move(label);
  return res;
}

}  // namespace eclp::algos::baselines
