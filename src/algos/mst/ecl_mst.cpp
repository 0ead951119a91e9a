#include "algos/mst/ecl_mst.hpp"

#include <algorithm>
#include <numeric>

#include "algos/common.hpp"
#include "profile/conflict.hpp"
#include "profile/session.hpp"
#include "sim/operators.hpp"
#include "support/stats.hpp"

namespace eclp::algos::mst {

namespace {

constexpr u64 kNoBest = ~u64{0};

u64 pack(weight_t w, u32 edge_id) {
  return (static_cast<u64>(w) << 32) | edge_id;
}
u32 packed_edge(u64 p) { return static_cast<u32>(p & 0xffffffffu); }

// The union-find helpers are forced inline into the K1-K3 bodies: as
// out-of-line calls taking the ThreadCtx by reference, every charge inside
// them would go through memory instead of the register tally
// (docs/SIMULATOR.md, "Dispatch & cost-charging internals").

/// Union-find root with intermediate pointer jumping (as in ECL-CC/MST).
[[gnu::always_inline]] inline vidx find_root(sim::ThreadCtx& ctx,
                                             sim::DeviceVector<vidx>& parent,
                                             vidx v) {
  vidx curr = ctx.load(parent[v]);
  if (curr != v) {
    vidx prev = v;
    vidx next;
    // Parents always point to smaller ids (unite hooks the larger root under
    // the smaller), so this strictly descends and stops at the root.
    while (curr > (next = ctx.load(parent[curr]))) {
      ctx.store(parent[prev], next);
      prev = curr;
      curr = next;
    }
  }
  return curr;
}

/// Lock-free union via CAS hooking toward smaller ids; returns true if the
/// two vertices were in different sets.
[[gnu::always_inline]] inline bool unite(sim::ThreadCtx& ctx,
                                         sim::DeviceVector<vidx>& parent,
                                         vidx a, vidx b) {
  vidx ra = find_root(ctx, parent, a);
  vidx rb = find_root(ctx, parent, b);
  while (ra != rb) {
    if (ra > rb) std::swap(ra, rb);  // hook larger root under smaller
    const vidx ret = ctx.atomic_cas(parent[rb], rb, ra);
    if (ret == rb) return true;
    rb = find_root(ctx, parent, ret);
  }
  return false;
}

}  // namespace

std::vector<UniqueEdge> unique_edges(const graph::Csr& g) {
  if (g.num_edges() == 0) return {};
  ECLP_CHECK_MSG(g.weighted(), "ECL-MST needs edge weights");
  std::vector<UniqueEdge> edges;
  edges.reserve(g.num_edges() / 2);
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights_of(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) edges.push_back({u, nbrs[i], ws[i]});
    }
  }
  return edges;
}

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt) {
  ECLP_CHECK_MSG(!g.directed(), "ECL-MST expects an undirected graph");
  ECLP_CHECK_MSG(opt.filter_percentile >= 0.0 && opt.filter_percentile <= 100.0,
                 "mst::Options::filter_percentile must be in [0, 100], got "
                     << opt.filter_percentile);
  profile::ScopedSpan algo_span("ecl-mst", profile::SpanKind::kAlgorithm);
  const vidx n = g.num_vertices();
  const auto edges = unique_edges(g);
  const u32 num_edges = static_cast<u32>(edges.size());

  Result res;
  res.in_mst.assign(num_edges, 0);
  const u64 cycles_before = dev.total_cycles();

  // --- initialization ---------------------------------------------------------
  sim::DeviceVector<vidx> parent(n);
  sim::DeviceVector<u64> best(n, kNoBest);
  // Pure per-vertex map — block-independent, unlike the K1-K3 rounds below,
  // whose atomicMin winners depend on cross-block visibility.
  sim::LaunchConfig init_cfg =
      blocks_for(std::max<u64>(n, 1), opt.threads_per_block);
  init_cfg.block_independent = true;
  profile::ScopedSpan init_span("init");
  sim::ops::compute(dev, "mst_init", init_cfg, n,
                    [&](sim::ThreadCtx& ctx, vidx v) {
                      ctx.store(parent[v], v);
                    });

  // Light/heavy split (the filter step for denser graphs, paper §2.4).
  weight_t threshold = ~weight_t{0};
  if (opt.filter_percentile > 0.0 && num_edges > 0) {
    std::vector<weight_t> ws(num_edges);
    for (u32 e = 0; e < num_edges; ++e) ws[e] = edges[e].w;
    threshold =
        static_cast<weight_t>(stats::percentile(ws, opt.filter_percentile));
    dev.host_op();  // computing the split threshold
  }
  std::vector<u32> worklist, heavy;
  for (u32 e = 0; e < num_edges; ++e) {
    (edges[e].w <= threshold ? worklist : heavy).push_back(e);
  }
  init_span.end();

  // The original computes the launch geometry once, from the initial
  // worklist, and reuses it every iteration (paper §6.1.4: "the launch
  // configuration ... is not updated correctly").
  const sim::LaunchConfig initial_cfg =
      blocks_for(std::max<usize>(worklist.size(), 1), opt.threads_per_block);

  profile::ConflictTracker conflicts;
  u32 regular_index = 0, filter_index = 0;
  bool filtering = false;

  // K1's in-flight atomics and K3's compacted worklist, kept across
  // iterations so their capacity is reused.
  struct Intent {
    vidx root;
    u64 packed;
    u32 thread;
  };
  std::vector<Intent> in_flight;
  std::vector<u32> next;
  sim::DeviceVector<u64> write_pos(1);  // K3's output cursor

  while (!worklist.empty() || !heavy.empty()) {
    if (worklist.empty()) {
      // Light edges exhausted: filter in the deferred heavy edges.
      worklist.swap(heavy);
      filtering = true;
      dev.host_op();  // swapping in the deferred worklist
    }

    const sim::LaunchConfig cfg =
        opt.corrected_launch
            ? blocks_for(std::max<usize>(worklist.size(), 1),
                         opt.threads_per_block)
            : initial_cfg;
    if (opt.corrected_launch) {
      dev.host_op();  // device-to-host readback of the live worklist size
    }

    res.host_iterations++;
    IterationMetrics metrics;
    metrics.kind = filtering ? "Filter" : "Regular";
    metrics.index = filtering ? ++filter_index : ++regular_index;
    metrics.launched_threads = cfg.total_threads();
    conflicts.reset();
    profile::ScopedSpan iter_span(profile::SpanKind::kIteration,
                                  filtering ? "filter" : "regular",
                                  metrics.index);

    // --- K1: lightest-edge competition ---------------------------------------
    // Threads of one block race: their non-atomic pre-checks read the state
    // left by *previous* blocks, and their atomics resolve together at the
    // end of the block (the simulator runs threads sequentially, so without
    // this batching every pre-checked atomicMin would succeed and the
    // useless-atomic behaviour of the paper's Figure 2 could never appear).
    const auto flush_in_flight = [&](sim::ThreadCtx& ctx) {
      for (const Intent& intent : in_flight) {
        if (opt.record_iteration_metrics) {
          conflicts.record(intent.root, intent.thread);
        }
        metrics.atomic_attempts++;
        if (!ctx.atomic_min(best[intent.root], intent.packed)) {
          metrics.useless_atomics++;
        }
      }
      in_flight.clear();
    };
    // K1 and K3 are per-thread kernels, each thread striding the worklist.
    sim::ops::compute(dev, "mst_k1_lightest", cfg,
                      [&](sim::ThreadCtx& ctx, vidx) {
      // Every launched thread — including the surplus ones of the stale
      // launch configuration (paper §6.1.4) — pays its bounds check.
      ctx.charge_alu(2);
      // One block's worth of threads race: their atomics resolve together
      // (count-based, so the batching is schedule-order independent).
      if (in_flight.size() >= cfg.threads_per_block) {
        flush_in_flight(ctx);
      }
      for (u64 i = ctx.global_id(); i < worklist.size();
           i += ctx.grid_size()) {
        const u32 e = worklist[i];
        ctx.charge_coalesced_reads(1);  // worklist slot, streaming
        const vidx ru = find_root(ctx, parent, edges[e].u);
        const vidx rv = find_root(ctx, parent, edges[e].v);
        if (ru == rv) continue;
        metrics.threads_with_work++;
        const u64 packed = pack(edges[e].w, e);
        for (const vidx r : {ru, rv}) {
          // Non-atomic pre-check against the last published state (the
          // behaviour behind Figure 2's trends): attempt the atomic only
          // when the edge currently beats the best.
          ctx.charge_reads(1);
          if (packed < best[r]) {
            in_flight.push_back({r, packed, ctx.global_id()});
          }
        }
      }
      if (ctx.global_id() + 1 == cfg.total_threads()) {
        flush_in_flight(ctx);  // final block publishes too
      }
    });
    // Under a shuffled schedule the final thread may not run last; drain any
    // remaining in-flight atomics so no candidate edge is lost.
    for (const Intent& intent : in_flight) {
      metrics.atomic_attempts++;
      if (intent.packed < best[intent.root]) {
        best[intent.root] = intent.packed;
      } else {
        metrics.useless_atomics++;
      }
    }
    in_flight.clear();

    // --- K2: adopt winners and merge sets (fixed per-vertex geometry) --------
    sim::ops::compute(dev, "mst_k2_merge", blocks_for(n, opt.threads_per_block),
                      n, [&](sim::ThreadCtx& ctx, vidx v) {
                        const u64 b = ctx.load(best[v]);
                        if (b == kNoBest) return;
                        if (ctx.load(parent[v]) == v) {
                          const u32 e = packed_edge(b);
                          ctx.store(res.in_mst[e], u8{1});
                          unite(ctx, parent, edges[e].u, edges[e].v);
                        }
                        ctx.store(best[v], kNoBest);
                      });

    // --- K3: worklist compaction ----------------------------------------------
    next.clear();
    next.reserve(worklist.size());
    write_pos[0] = 0;
    sim::ops::compute(dev, "mst_k3_compact", cfg,
                      [&](sim::ThreadCtx& ctx, vidx) {
      ctx.charge_alu(2);  // bounds check, paid by surplus threads too
      for (u64 i = ctx.global_id(); i < worklist.size();
           i += ctx.grid_size()) {
        const u32 e = worklist[i];
        ctx.charge_coalesced_reads(1);  // worklist slot, streaming
        const vidx ru = find_root(ctx, parent, edges[e].u);
        const vidx rv = find_root(ctx, parent, edges[e].v);
        if (ru != rv) {
          ctx.atomic_add(write_pos[0], 1);
          next.push_back(e);
        }
      }
    });
    const bool merged_any = next.size() < worklist.size();
    worklist.swap(next);

    if (opt.record_iteration_metrics) {
      metrics.conflicting_threads = conflicts.conflicting_threads();
      res.iterations.push_back(metrics);
    }
    ECLP_CHECK_MSG(merged_any || worklist.empty() || !heavy.empty() ||
                       filtering,
                   "ECL-MST made no progress");
    if (!merged_any && worklist.empty()) break;
  }

  res.modeled_cycles = dev.total_cycles() - cycles_before;
  for (u32 e = 0; e < num_edges; ++e) {
    if (res.in_mst[e]) {
      res.total_weight += edges[e].w;
      res.mst_edges++;
    }
  }
  return res;
}

u64 reference_total_weight(const graph::Csr& g) {
  auto edges = unique_edges(g);
  std::sort(edges.begin(), edges.end(),
            [](const UniqueEdge& a, const UniqueEdge& b) {
              return a.w < b.w;
            });
  DisjointSets dsu(g.num_vertices());
  u64 total = 0;
  for (const auto& e : edges) {
    if (dsu.unite(e.u, e.v)) total += e.w;
  }
  return total;
}

bool verify(const graph::Csr& g, const Result& result) {
  const auto edges = unique_edges(g);
  if (result.in_mst.size() != edges.size()) return false;
  // The flagged edges must form a forest spanning each component.
  DisjointSets dsu(g.num_vertices());
  u64 weight = 0;
  usize count = 0;
  for (usize e = 0; e < edges.size(); ++e) {
    if (!result.in_mst[e]) continue;
    if (!dsu.unite(edges[e].u, edges[e].v)) return false;  // cycle
    weight += edges[e].w;
    ++count;
  }
  if (weight != result.total_weight || count != result.mst_edges) {
    return false;
  }
  // Spanning: same number of components as the graph itself.
  DisjointSets graph_dsu(g.num_vertices());
  for (const auto& e : edges) graph_dsu.unite(e.u, e.v);
  if (dsu.num_sets() != graph_dsu.num_sets()) return false;
  // Minimal: matches Kruskal's total weight.
  return weight == reference_total_weight(g);
}

}  // namespace eclp::algos::mst
