#include "algos/gc/ecl_gc.hpp"

#include <algorithm>
#include <bit>

#include "algos/common.hpp"
#include "profile/session.hpp"
#include "sim/operators.hpp"

namespace eclp::algos::gc {

namespace {

/// LDF priority: higher degree wins, ties go to the smaller id.
bool higher_priority(const graph::Csr& g, vidx u, vidx v) {
  const vidx du = g.degree(u), dv = g.degree(v);
  return du != dv ? du > dv : u < v;
}

/// Flat per-vertex bitmaps. Vertex v owns words_[offset_[v] ..
/// offset_[v+1]) covering colors 0 .. width(v)-1.
class Bitmaps {
 public:
  Bitmaps(std::span<const u32> widths) {
    offsets_.resize(widths.size() + 1, 0);
    for (usize v = 0; v < widths.size(); ++v) {
      offsets_[v + 1] = offsets_[v] + (widths[v] + 63) / 64;
    }
    words_.assign(offsets_.back(), 0);
    widths_.assign(widths.begin(), widths.end());
    // Initialize: all candidate colors possible.
    for (usize v = 0; v < widths.size(); ++v) {
      set_all(v);
    }
  }

  u32 width(usize v) const { return widths_[v]; }
  u32 num_words(usize v) const {
    return static_cast<u32>(offsets_[v + 1] - offsets_[v]);
  }

  void set_all(usize v) {
    u32 remaining = widths_[v];
    for (u64 w = offsets_[v]; w < offsets_[v + 1]; ++w) {
      words_[w] = remaining >= 64 ? ~u64{0} : ((u64{1} << remaining) - 1);
      remaining = remaining >= 64 ? remaining - 64 : 0;
    }
  }

  bool test(usize v, u32 color) const {
    if (color >= widths_[v]) return false;
    return (words_[offsets_[v] + color / 64] >> (color % 64)) & 1;
  }

  /// Clear; returns true if the bit was previously set.
  bool clear(usize v, u32 color) {
    if (color >= widths_[v]) return false;
    u64& w = words_[offsets_[v] + color / 64];
    const u64 mask = u64{1} << (color % 64);
    const bool was = (w & mask) != 0;
    w &= ~mask;
    return was;
  }

  /// Lowest set bit (the vertex's "best possible color"); kNoColor if empty.
  u32 best(usize v) const {
    for (u64 w = offsets_[v]; w < offsets_[v + 1]; ++w) {
      if (words_[w] != 0) {
        return static_cast<u32>((w - offsets_[v]) * 64 +
                                std::countr_zero(words_[w]));
      }
    }
    return kNoColor;
  }

  /// True when the candidate sets of a and b share no color.
  bool disjoint(usize a, usize b) const {
    const u32 words = std::min(num_words(a), num_words(b));
    for (u32 w = 0; w < words; ++w) {
      if ((words_[offsets_[a] + w] & words_[offsets_[b] + w]) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<u64> offsets_;
  std::vector<u64> words_;
  std::vector<u32> widths_;
};

}  // namespace

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt) {
  ECLP_CHECK_MSG(!g.directed(), "ECL-GC expects an undirected graph");
  profile::ScopedSpan algo_span("ecl-gc", profile::SpanKind::kAlgorithm);
  const vidx n = g.num_vertices();
  Result res;
  const u64 cycles_before = dev.total_cycles();

  // --- initialization: LDF DAG + possible-color bitmaps ----------------------
  // DAG in-neighbors (higher-priority endpoints) per vertex, flattened.
  sim::DeviceVector<u32> indeg(n, 0);
  std::vector<eidx> dag_off(static_cast<usize>(n) + 1, 0);
  // Both init kernels are pure per-vertex maps (each thread fills only its
  // own vertices' slots), so they run block-parallel; the coloring rounds
  // below depend on cross-block color visibility and stay sequential.
  sim::LaunchConfig init_cfg = blocks_for(n, opt.threads_per_block);
  init_cfg.block_independent = true;
  profile::ScopedSpan init_span("init");
  // Both init kernels are advances over the full vertex set: a serial
  // per-thread adjacency scan (width 1, reads charged flat, no row-offset
  // charge — the hand-rolled bodies never modeled one), accumulating
  // per-vertex state between enter and leave.
  using Shape = sim::ops::AdvanceShape;
  constexpr Shape init_shape{.width = 1,
                             .row_offset_reads = 0,
                             .edge_charge = Shape::EdgeCharge::kReads};
  sim::ops::advance(
      dev, "gc_init_degree", init_cfg, g, sim::ops::all_vertices(n),
      init_shape,
      [](sim::ThreadCtx&, vidx, u32) -> u32 { return 0; },  // in-degree
      [&](sim::ThreadCtx&, u32& d, vidx v, vidx u) {
        if (higher_priority(g, u, v)) ++d;
      },
      [&](sim::ThreadCtx& ctx, vidx v, u32& d) { ctx.store(indeg[v], d); });
  for (vidx v = 0; v < n; ++v) dag_off[v + 1] = dag_off[v] + indeg[v];
  sim::DeviceVector<vidx> dag_in(dag_off[n]);
  sim::ops::advance(
      dev, "gc_init_dag", init_cfg, g, sim::ops::all_vertices(n), init_shape,
      [&](sim::ThreadCtx&, vidx v, u32) { return dag_off[v]; },  // out cursor
      [&](sim::ThreadCtx& ctx, eidx& pos, vidx v, vidx u) {
        if (higher_priority(g, u, v)) {
          ctx.store(dag_in[pos], u);
          ++pos;
        }
      });

  // A vertex with k higher-priority neighbors needs at most k+1 colors.
  std::vector<u32> widths(n);
  for (vidx v = 0; v < n; ++v) widths[v] = indeg[v] + 1;
  Bitmaps maps(widths);

  // Dependency lists. The front of v's dag_in row holds, in DAG order, the
  // dependencies a pass still has to look at: the uncolored ones and those
  // Shortcut 2 removed. A colored dependency prunes v's bitmap once and is
  // then dropped — clearing is idempotent and bits never come back. dep_pos
  // holds each entry's position in the full row, plus kRemoved once
  // Shortcut 2 drops it; `pending` is the list length, which starts as the
  // in-degree. The pass charges what a scan of the full row would, from
  // these positions and counts.
  constexpr u32 kRemoved = u32{1} << 31;
  ECLP_CHECK(n <= kRemoved);  // row positions stay below the removed bit
  std::vector<u32> dep_pos(dag_off[n]);
  for (vidx v = 0; v < n; ++v) {
    for (eidx e = dag_off[v]; e < dag_off[v + 1]; ++e) {
      dep_pos[e] = static_cast<u32>(e - dag_off[v]);
    }
  }
  sim::DeviceVector<u32>& pending = indeg;

  std::vector<u32> color(n, kNoColor);
  profile::PerVertexCounter best_changed(n);
  profile::PerVertexCounter not_yet_possible(n);

  // Worklist of uncolored vertices, split by the runSmall/runLarge degree
  // threshold (the original runs one warp per large vertex).
  std::vector<vidx> small_list, large_list;
  for (vidx v = 0; v < n; ++v) {
    (g.degree(v) > kLargeDegree ? large_list : small_list).push_back(v);
  }
  res.run_large.large_vertices = large_list.size();
  init_span.end();

  // --- coloring rounds --------------------------------------------------------
  // One processing pass over a vertex. Memory charges are *counted* rather
  // than charged directly so the caller can split them across cooperating
  // lanes (runLarge is one warp per vertex in the original).
  struct PassCost {
    u64 reads = 0;
    u64 writes = 0;
  };
  const auto coloring_pass = [&](vidx v, bool is_large,
                                 PassCost& cost) -> bool {
    const eidx row = dag_off[v];
    const u32 deg = static_cast<u32>(dag_off[v + 1] - row);
    vidx* const deps = dag_in.data() + row;
    u32* const pos = dep_pos.data() + row;
    // Prune candidates by colors claimed by colored higher-priority
    // neighbors, dropping those from the list; detect invalidation of the
    // current best. A full-row scan reads every dependency not removed and
    // writes (prunes) every colored one.
    const u32 old_best = maps.best(v);
    u32 removed = 0;
    u32 kept = 0;
    for (u32 i = 0; i < pending[v]; ++i) {
      const vidx u = deps[i];
      if ((pos[i] & kRemoved) == 0) {
        if (color[u] != kNoColor) {
          maps.clear(v, color[u]);
          continue;
        }
      } else {
        ++removed;
      }
      deps[kept] = u;
      pos[kept] = pos[i];
      ++kept;
    }
    pending[v] = kept;
    cost.reads += deg - removed;
    cost.writes += deg - kept;
    const u32 best = maps.best(v);
    ECLP_CHECK_MSG(best != kNoColor, "GC bitmap exhausted at vertex " << v);
    if (is_large && best != old_best) best_changed.inc(v);

    // Shortcut 1: v may take `best` once no live higher-priority dependency
    // still considers it. Shortcut 2: drop dependencies with disjoint sets.
    // Without shortcuts (strict JP): any uncolored dependency blocks v.
    // Every live entry left is uncolored. A full-row scan up to the
    // blocking entry (or the row's end) reads each entry not removed before
    // it, plus one bitmap probe per live entry it tests.
    bool blocked = false;
    u32 last = deg;
    u32 removed_before = 0;
    u64 probes = 0;
    for (u32 i = 0; i < kept; ++i) {
      if ((pos[i] & kRemoved) != 0) {
        ++removed_before;
        continue;
      }
      const vidx u = deps[i];
      if (opt.use_shortcuts) {
        ++probes;  // the neighbor's bitmap words
        if (maps.disjoint(v, u)) {
          pos[i] |= kRemoved;
          res.shortcut2_removals++;
          continue;
        }
        if (!maps.test(u, best)) continue;  // u cannot take our best color
      }
      blocked = true;
      last = pos[i] + 1;
      break;
    }
    cost.reads += last - removed_before + probes;
    if (blocked) {
      if (is_large) not_yet_possible.inc(v);
      return false;
    }
    // Count shortcut-1 colorings: some live dependency is still uncolored.
    // A full-row scan reads up to and including the first one.
    u32 first_live = deg;
    for (u32 i = 0; i < kept; ++i) {
      if ((pos[i] & kRemoved) == 0) {
        first_live = pos[i];
        break;
      }
    }
    if (first_live < deg) {
      res.shortcut1_colorings++;
      cost.reads += first_live + 1;
    } else {
      cost.reads += deg;
    }
    color[v] = best;
    cost.writes++;
    return true;
  };

  constexpr u32 kWarp = sim::Device::kWarpSize;
  std::vector<vidx> next;
  // Host-driven convergence: each round filters the two worklists down to
  // the vertices still uncolored. Strict JP (shortcuts off) can need as
  // many rounds as the longest monotone-priority path, hence the n+2
  // progress guard; shortcutted runs converge in far fewer.
  res.host_iterations = sim::ops::iterate_until(
      "gc_rounds",
      [&] { return small_list.empty() && large_list.empty(); },
      [&](u64 /*round*/) {
        if (!small_list.empty()) {
          next.clear();
          sim::ops::filter(
              dev, "gc_run_small",
              blocks_for(small_list.size(), opt.threads_per_block),
              small_list, 1, next,
              [&](sim::ThreadCtx& ctx, vidx v, u32 /*lane*/) {
                PassCost cost;
                const bool colored = coloring_pass(v, /*is_large=*/false,
                                                   cost);
                ctx.charge_reads(cost.reads);
                ctx.charge_writes(cost.writes);
                return !colored;
              });
          small_list.swap(next);
        }
        if (!large_list.empty()) {
          // One warp per large vertex: lane 0 executes the pass, every lane
          // carries its 1/32 share of the memory traffic — a hub's scan is
          // spread across the warp, not serialized on one thread.
          next.clear();
          PassCost warp_cost;  // cost of the pass lane 0 just executed
          sim::ops::filter(
              dev, "gc_run_large",
              blocks_for(static_cast<u64>(large_list.size()) * kWarp,
                         opt.threads_per_block),
              large_list, kWarp, next,
              [&](sim::ThreadCtx& ctx, vidx v, u32 lane) {
                bool keep = false;
                if (lane == 0) {
                  warp_cost = PassCost{};
                  keep = !coloring_pass(v, /*is_large=*/true, warp_cost);
                }
                ctx.charge_reads((warp_cost.reads + kWarp - 1) / kWarp);
                ctx.charge_writes((warp_cost.writes + kWarp - 1) / kWarp);
                return keep;
              });
          large_list.swap(next);
        }
      },
      {.round_base = "round",
       .max_rounds = static_cast<u64>(n) + 2,
       .on_exceeded = "ECL-GC failed to make progress"});

  res.modeled_cycles = dev.total_cycles() - cycles_before;
  res.num_colors = count_colors(color);

  // Summaries restricted to the runLarge vertices (Table 5 is per-vertex
  // over the vertices the runLarge kernel handles).
  std::vector<u64> bc, nyp;
  for (vidx v = 0; v < n; ++v) {
    if (g.degree(v) > kLargeDegree) {
      bc.push_back(best_changed.at(v));
      nyp.push_back(not_yet_possible.at(v));
    }
  }
  if (!bc.empty()) {
    res.run_large.best_color_changed =
        stats::summarize(std::span<const u64>(bc));
    res.run_large.not_yet_possible =
        stats::summarize(std::span<const u64>(nyp));
  }
  res.colors = std::move(color);
  return res;
}

std::vector<u32> reference_greedy(const graph::Csr& g) {
  const vidx n = g.num_vertices();
  std::vector<vidx> order(n);
  for (vidx v = 0; v < n; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](vidx a, vidx b) {
    return higher_priority(g, a, b);
  });
  std::vector<u32> color(n, kNoColor);
  std::vector<u32> used;
  for (const vidx v : order) {
    used.assign(g.degree(v) + 1, 0);
    for (const vidx u : g.neighbors(v)) {
      const u32 cu = color[u];
      if (cu != kNoColor && cu < used.size()) used[cu] = 1;
    }
    u32 c = 0;
    while (used[c]) ++c;
    color[v] = c;
  }
  return color;
}

bool verify(const graph::Csr& g, std::span<const u32> colors) {
  if (colors.size() != g.num_vertices()) return false;
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    if (colors[v] == kNoColor) return false;
    for (const vidx u : g.neighbors(v)) {
      if (u != v && colors[u] == colors[v]) return false;
    }
  }
  return true;
}

u32 count_colors(std::span<const u32> colors) {
  u32 max_color = 0;
  for (const u32 c : colors) {
    if (c != kNoColor) max_color = std::max(max_color, c + 1);
  }
  return max_color;
}

}  // namespace eclp::algos::gc
