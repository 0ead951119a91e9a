#include "algos/scc/ecl_scc.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "algos/common.hpp"
#include "profile/session.hpp"
#include "sim/operators.hpp"

namespace eclp::algos::scc {

namespace {

struct Arc {
  vidx src;
  vidx dst;
};

std::vector<Arc> flatten_arcs(const graph::Csr& g) {
  std::vector<Arc> arcs;
  arcs.reserve(g.num_edges());
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx w : g.neighbors(u)) arcs.push_back({u, w});
  }
  return arcs;
}

}  // namespace

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt) {
  ECLP_CHECK_MSG(g.directed(), "ECL-SCC expects a directed graph");
  ECLP_CHECK(opt.edges_per_thread >= 1);
  profile::ScopedSpan algo_span("ecl-scc", profile::SpanKind::kAlgorithm);
  const vidx n = g.num_vertices();
  const auto arcs = flatten_arcs(g);
  const u64 num_arcs = arcs.size();

  Result res;
  res.scc_id.assign(n, kNoVertex);
  const u64 cycles_before = dev.total_cycles();

  sim::DeviceVector<vidx> vin(n), vout(n);
  sim::DeviceVector<u8> settled(n, 0);
  sim::DeviceVector<u8> alive(num_arcs, 1);

  const u64 prop_threads =
      std::max<u64>(1, (num_arcs + opt.edges_per_thread - 1) /
                           opt.edges_per_thread);
  const sim::LaunchConfig prop_cfg =
      blocks_for(prop_threads, opt.threads_per_block);
  const sim::LaunchConfig vertex_cfg =
      blocks_for(std::max<u64>(n, 1), opt.threads_per_block);
  // The vertex-parallel kernels below touch only their own vertices' slots
  // (grid-stride partition), and scc_propagate follows the launch-snapshot
  // discipline by construction — all are safe to run block-parallel.
  sim::LaunchConfig prop_par_cfg = prop_cfg;
  prop_par_cfg.block_independent = true;
  sim::LaunchConfig vertex_par_cfg = vertex_cfg;
  vertex_par_cfg.block_independent = true;

  // Live in/out arc counts, maintained as edges die (used by trimming).
  std::vector<u32> alive_out(n, 0), alive_in(n, 0);
  for (const Arc& arc : arcs) {
    alive_out[arc.src]++;
    alive_in[arc.dst]++;
  }

  // Propagation geometry: block b's threads own arcs [b * span, (b+1) *
  // span), and a vertex is "homed" in the block holding its first out-arc.
  const u32 tpb = prop_cfg.threads_per_block;
  const u64 span = static_cast<u64>(tpb) * opt.edges_per_thread;
  std::vector<vidx> home_block(n);
  for (vidx v = 0; v < n; ++v) {
    home_block[v] = static_cast<vidx>(g.edge_begin(v) / span);
  }
  // The arcs [begin, end) of propagation-geometry thread t.
  const auto arcs_of = [&](u64 t) {
    const u64 begin = t * opt.edges_per_thread;
    return std::pair{begin,
                     std::min<u64>(begin + opt.edges_per_thread, num_arcs)};
  };

  // Every vertex's in-arcs as ascending arc indices (a CSC view of
  // `arcs`), those inside the vertex's home block first: its home in-arcs
  // are [in_begin[v], in_foreign[v]), its foreign ones [in_foreign[v],
  // in_begin[v + 1]). Its out-arcs are its CSR row, whose home part is the
  // prefix inside its home block.
  std::vector<eidx> in_begin(n + 1, 0), in_foreign(n, 0), in_arcs(num_arcs);
  {
    const auto is_home = [&](u64 e) {
      return e / span == home_block[arcs[e].dst];
    };
    for (u64 e = 0; e < num_arcs; ++e) {
      if (is_home(e)) in_foreign[arcs[e].dst]++;
    }
    for (vidx v = 0; v < n; ++v) {
      in_begin[v + 1] = in_begin[v] + alive_in[v];
      in_foreign[v] += in_begin[v];
    }
    std::vector<eidx> home_next(in_begin.begin(), in_begin.end() - 1);
    std::vector<eidx> foreign_next(in_foreign);
    for (u64 e = 0; e < num_arcs; ++e) {
      eidx& next = is_home(e) ? home_next[arcs[e].dst]
                              : foreign_next[arcs[e].dst];
      in_arcs[next++] = static_cast<eidx>(e);
    }
  }

  // Propagation state, kept across launches and rounds.
  struct Intent {
    vidx vertex;
    vidx value;
    u32 thread;  ///< the pushing thread's global id
    bool in;     ///< targets v_in (else v_out)
  };
  const auto slot_of = [&](const Intent& intent) -> vidx& {
    return (intent.in ? vin : vout)[intent.vertex];
  };
  // Per-block intent buffers and update tallies: block b only ever touches
  // index b, which is what makes scc_propagate block-independent. Remote
  // intents are applied host-side in block-index order after each launch,
  // and the tallies are summed the same way, so the numbers match a
  // sequential block sweep exactly.
  std::vector<std::vector<Intent>> local_intents(prop_cfg.blocks);
  std::vector<std::vector<Intent>> remote_intents(prop_cfg.blocks);
  std::vector<u64> block_updates(prop_cfg.blocks), repeats(prop_cfg.blocks);
  std::vector<vidx> vin_snap(n), vout_snap(n);
  // Dirty-thread bookkeeping (ops::block_jacobi's contract; the argument is
  // in docs/SIMULATOR.md). One bit per propagation thread, in words owned
  // by its block. Arc (u, w) tests v_out[w] > v_out[u] and v_in[u] >
  // v_in[w]: raising v_out[w] or v_in[u] can change what it charges and
  // pushes, while raising v_out[u] or v_in[w] can only turn a test that
  // pushed to that slot false. So a raised v_out dirties the vertex's
  // in-arcs, a raised v_in its out-arcs, and a pushed intent its pusher.
  // A commit flags these among the block's threads for its next sweep;
  // launch end flags them for the next launch's first sweep: the home
  // readers of a vertex a remote intent raised, the foreign readers (which
  // read the snapshot) of every changed vertex, and every remote pusher. A
  // clean thread pushes no local intent, and in a first sweep no remote
  // one either; later in a launch it repeats the remote intents of its
  // last sweep, which are ineffective once the first copies apply: they
  // are counted, not buffered, and recorded at launch end.
  const u32 words = (tpb + 63) / 64;
  const u64 pad = static_cast<u64>(words) * 64 - tpb;
  std::vector<u64> dirty_bits(static_cast<u64>(prop_cfg.blocks) * words, 0);
  const auto flag_thread = [&](u64 t) {
    const u64 bit = pad == 0 ? t : t + t / tpb * pad;
    dirty_bits[bit / 64] |= u64{1} << (bit % 64);
  };
  const auto flag_arc = [&](u64 e) {
    if (!alive[e]) return;
    flag_thread(opt.edges_per_thread == 1 ? e : e / opt.edges_per_thread);
  };
  // Flag the readers, home or foreign, that a raise of `x`'s v_in (`in`)
  // or v_out dirties.
  const auto flag_readers = [&](vidx x, bool in, bool home) {
    if (in) {
      const u64 split = std::min<u64>(
          g.edge_end(x), (static_cast<u64>(home_block[x]) + 1) * span);
      const u64 first = home ? g.edge_begin(x) : split;
      const u64 last = home ? split : g.edge_end(x);
      for (u64 e = first; e < last; ++e) flag_arc(e);
    } else {
      const eidx first = home ? in_begin[x] : in_foreign[x];
      const eidx last = home ? in_foreign[x] : in_begin[x + 1];
      for (eidx i = first; i < last; ++i) flag_arc(in_arcs[i]);
    }
  };
  // Remote intents each thread's last sweep pushed, and their per-block
  // sums.
  std::vector<u32> remote_pushed(prop_cfg.total_threads(), 0);
  std::vector<u64> block_remote_pushed(prop_cfg.blocks, 0);
  // Name `block`'s flagged threads in ascending order and clear their
  // flags; returns the remote intents their last sweeps pushed.
  const auto take_flagged = [&](u32 block, std::vector<u32>& dirty) {
    u64* bits = &dirty_bits[static_cast<u64>(block) * words];
    const u32 first = block * tpb;
    u64 flagged_remote = 0;
    for (u32 w = 0; w < words; ++w) {
      for (u64 word = std::exchange(bits[w], 0); word != 0; word &= word - 1) {
        const u32 t = w * 64 + static_cast<u32>(std::countr_zero(word));
        dirty.push_back(t);
        flagged_remote += remote_pushed[first + t];
      }
    }
    return flagged_remote;
  };

  usize remaining = n;
  u32 m = 0;
  while (remaining > 0) {
    ++m;
    ECLP_CHECK_MSG(m <= n + 1, "ECL-SCC failed to converge");
    profile::ScopedSpan round_span(profile::SpanKind::kIteration, "round", m);

    // --- stage 0 (optional): trimming ----------------------------------------
    // A live vertex with no live in-arc or no live out-arc is on no cycle:
    // settle it as a singleton and let its arcs die, repeating to a fixed
    // point (chains peel completely without any propagation).
    profile::ScopedSpan trim_span("trim");
    while (opt.trim) {
      // Per-block partial counts, summed in block order after the launch so
      // the total never depends on block execution order.
      std::vector<u64> trimmed_per_block(vertex_cfg.blocks, 0);
      sim::ops::compute(dev, "scc_trim", vertex_par_cfg, n,
                        [&](sim::ThreadCtx& ctx, vidx v) {
        ctx.charge_coalesced_reads(3);
        if (settled[v]) return;
        if (alive_out[v] == 0 || alive_in[v] == 0) {
          ctx.charge_writes(2);
          res.scc_id[v] = v;
          settled[v] = 1;
          ++trimmed_per_block[ctx.block_idx()];
        }
      });
      u64 trimmed = 0;
      for (const u64 t : trimmed_per_block) trimmed += t;
      if (trimmed == 0) break;
      res.trimmed_vertices += trimmed;
      remaining -= trimmed;
      // Retire the arcs of freshly settled vertices so the counts drop.
      sim::ops::compute(dev, "scc_trim_edges", prop_cfg,
                        [&](sim::ThreadCtx& ctx, vidx t) {
        const auto [begin, end] = arcs_of(t);
        for (u64 e = begin; e < end; ++e) {
          ctx.charge_coalesced_reads(1);
          if (!alive[e]) continue;
          const vidx u = arcs[e].src, w = arcs[e].dst;
          if (settled[u] || settled[w]) {
            ctx.charge_writes(1);
            alive[e] = 0;
            alive_out[u]--;
            alive_in[w]--;
          }
        }
      });
      dev.host_op();  // trimmed-count readback drives the repeat decision
    }
    trim_span.end();
    if (remaining == 0) break;

    // --- stage 1: signature initialization ----------------------------------
    profile::ScopedSpan prop_span("propagation");
    sim::ops::compute(dev, "scc_init_signatures", vertex_par_cfg, n,
                      [&](sim::ThreadCtx& ctx, vidx v) {
      ctx.charge_reads(1);
      if (settled[v]) return;
      ctx.store(vin[v], v);
      ctx.store(vout[v], v);
    });

    // --- stage 2: maximum-value propagation to a fixed point ----------------
    // Visibility model (the simulator runs blocks one after another, the
    // GPU runs them concurrently — both facts matter for the cost shapes of
    // Table 6):
    //  * within a block, sweeps have snapshot semantics
    //    (ops::block_jacobi): a sweep's atomicMax intents are buffered and
    //    committed at the block-wide sync, so value chains advance one hop
    //    per sweep in both directions, as under warp parallelism;
    //  * across blocks, a launch has snapshot semantics: values of vertices
    //    "homed" in other blocks are read from the launch-start snapshot,
    //    and updates targeting them apply after the launch — concurrent
    //    blocks cannot observe each other mid-launch, so cross-block
    //    propagation costs one grid relaunch per block boundary.
    u32 inner_n = 0;
    while (true) {
      ++inner_n;
      // Launch-start snapshot (a device-side copy).
      vin_snap.assign(vin.begin(), vin.end());
      vout_snap.assign(vout.begin(), vout.end());
      std::fill(block_updates.begin(), block_updates.end(), 0);
      std::fill(repeats.begin(), repeats.end(), 0);
      sim::ops::block_jacobi(
          dev, "scc_propagate", prop_par_cfg,
          [&](sim::ThreadCtx& ctx, u64 /*inner_iter*/) {
            const u32 b = ctx.block_idx();
            const auto [begin, end] = arcs_of(ctx.global_id());
            u32 remote = 0;
            const auto push = [&](bool in, vidx v, vidx value) {
              ctx.charge_atomics(1);
              const Intent intent{v, value, ctx.global_id(), in};
              if (home_block[v] == b) {
                local_intents[b].push_back(intent);
              } else {
                remote_intents[b].push_back(intent);
                ++remote;
              }
            };
            for (u64 e = begin; e < end; ++e) {
              ctx.charge_coalesced_reads(1);  // alive flag, streaming
              if (!alive[e]) continue;
              const vidx u = arcs[e].src, w = arcs[e].dst;
              ctx.charge_reads(2);  // the two signature loads
              // v_out flows backwards (source learns what the destination
              // can reach); v_in flows forwards. Every read of a vertex
              // homed in another block comes from the launch-start snapshot
              // — guards included, or the guard itself would peek at
              // another block's in-flight writes.
              const vidx vout_w = home_block[w] == b ? vout[w] : vout_snap[w];
              const vidx vout_u = home_block[u] == b ? vout[u] : vout_snap[u];
              if (vout_w > vout_u) push(false, u, vout_w);
              const vidx vin_u = home_block[u] == b ? vin[u] : vin_snap[u];
              const vidx vin_w = home_block[w] == b ? vin[w] : vin_snap[w];
              if (vin_u > vin_w) push(true, w, vin_u);
            }
            block_remote_pushed[b] += remote;
            block_remote_pushed[b] -= remote_pushed[ctx.global_id()];
            remote_pushed[ctx.global_id()] = remote;
          },
          [&](u32 block, u64 /*inner_iter*/, std::vector<u32>& dirty) {
            // Resolve the buffered atomicMax intents and classify their
            // outcomes for the device-wide atomic statistics (paper
            // §3.1.5). Local intents only target vertices homed in this
            // block, so the live compare races with nobody.
            // Every pusher is dirty: its slot was raised, by its intent or
            // an earlier one.
            u64 effective = 0;
            for (const Intent& intent : local_intents[block]) {
              vidx& slot = slot_of(intent);
              if (intent.value > slot) {
                slot = intent.value;
                ++effective;
                flag_readers(intent.vertex, intent.in, /*home=*/true);
              }
              flag_thread(intent.thread);
            }
            dev.record_block_atomic(block, sim::AtomicOutcome::kMaxEffective,
                                    effective);
            dev.record_block_atomic(block, sim::AtomicOutcome::kMaxIneffective,
                                    local_intents[block].size() - effective);
            local_intents[block].clear();
            block_updates[block] += effective;
            if (effective == 0) return false;
            // The unflagged threads' remote intents repeat next sweep.
            repeats[block] +=
                block_remote_pushed[block] - take_flagged(block, dirty);
            return true;
          },
          [&](u32 block, std::vector<u32>& dirty) {
            if (inner_n == 1) return true;  // fresh signatures: all run
            // The flagged threads; the others pushed no remote intent in
            // their last sweep, or its target's change would have flagged
            // them.
            [[maybe_unused]] const u64 flagged_remote =
                take_flagged(block, dirty);
            ECLP_ASSERT_MSG(flagged_remote == block_remote_pushed[block],
                            "scc_propagate block "
                                << block
                                << ": a thread skipped in a first sweep "
                                   "pushed a remote intent in its last one");
            return false;
          });
      // Cross-block updates become visible only now, at launch end; applying
      // them block by block reproduces the order a sequential sweep with one
      // shared buffer would have produced. A vertex they raise is stale for
      // its home readers too, and every pusher for its target changed.
      u64 launch_updates = 0;
      for (const u64 u : block_updates) launch_updates += u;
      for (u32 b = 0; b < prop_cfg.blocks; ++b) {
        u64 effective = 0;
        for (const Intent& intent : remote_intents[b]) {
          vidx& slot = slot_of(intent);
          if (intent.value > slot) {
            slot = intent.value;
            ++effective;
            flag_readers(intent.vertex, intent.in, /*home=*/true);
          }
          flag_thread(intent.thread);
        }
        dev.atomic_stats().record(sim::AtomicOutcome::kMaxEffective,
                                  effective);
        dev.atomic_stats().record(
            sim::AtomicOutcome::kMaxIneffective,
            remote_intents[b].size() - effective + repeats[b]);
        remote_intents[b].clear();
        launch_updates += effective;
      }
      if (opt.record_series) res.series.record(m, inner_n, block_updates);
      if (launch_updates == 0) break;  // grid-wide fixed point
      // Every vertex the launch changed is stale for its foreign readers,
      // which read it from the snapshot.
      for (vidx v = 0; v < n; ++v) {
        if (vin[v] != vin_snap[v]) flag_readers(v, true, /*home=*/false);
        if (vout[v] != vout_snap[v]) flag_readers(v, false, /*home=*/false);
      }
    }
    res.inner_per_outer.push_back(inner_n);
    prop_span.end();

    // --- stage 3: matching + edge removal ------------------------------------
    profile::ScopedSpan match_span("match");
    std::vector<u64> settled_per_block(vertex_cfg.blocks, 0);
    sim::ops::compute(dev, "scc_match", vertex_par_cfg, n,
                      [&](sim::ThreadCtx& ctx, vidx v) {
      ctx.charge_reads(1);
      if (settled[v]) return;
      if (ctx.load(vin[v]) == ctx.load(vout[v])) {
        ctx.store(res.scc_id[v], vin[v]);
        ctx.store(settled[v], u8{1});
        ++settled_per_block[ctx.block_idx()];
      }
    });
    u64 newly_settled = 0;
    for (const u64 s : settled_per_block) newly_settled += s;
    sim::ops::compute(dev, "scc_remove_edges", prop_cfg,
                      [&](sim::ThreadCtx& ctx, vidx t) {
      const auto [begin, end] = arcs_of(t);
      for (u64 e = begin; e < end; ++e) {
        ctx.charge_reads(1);
        if (!alive[e]) continue;
        const vidx u = arcs[e].src, w = arcs[e].dst;
        const bool drop = settled[u] || settled[w] || vin[u] != vin[w] ||
                          vout[u] != vout[w];
        if (drop) {
          ctx.store(alive[e], u8{0});
          alive_out[u]--;
          alive_in[w]--;
        }
      }
    });
    ECLP_CHECK_MSG(newly_settled > 0, "ECL-SCC round settled nothing");
    remaining -= newly_settled;
  }

  res.outer_iterations = m;
  res.modeled_cycles = dev.total_cycles() - cycles_before;
  std::vector<u8> seen(n, 0);
  for (vidx v = 0; v < n; ++v) {
    const vidx id = res.scc_id[v];
    if (!seen[id]) {
      seen[id] = 1;
      res.num_sccs++;
    }
  }
  return res;
}

std::vector<vidx> reference_scc(const graph::Csr& g) {
  // Iterative Tarjan with an explicit DFS stack.
  const vidx n = g.num_vertices();
  constexpr u32 kUnvisited = ~u32{0};
  std::vector<u32> index(n, kUnvisited), lowlink(n, 0);
  std::vector<u8> on_stack(n, 0);
  std::vector<vidx> stack, scc_of(n, kNoVertex);
  u32 next_index = 0;

  struct Frame {
    vidx v;
    usize edge;
  };
  std::vector<Frame> dfs;

  for (vidx start = 0; start < n; ++start) {
    if (index[start] != kUnvisited) continue;
    dfs.push_back({start, 0});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = 1;
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      const auto nbrs = g.neighbors(f.v);
      if (f.edge < nbrs.size()) {
        const vidx w = nbrs[f.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          dfs.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        const vidx v = f.v;
        dfs.pop_back();
        if (!dfs.empty()) {
          lowlink[dfs.back().v] = std::min(lowlink[dfs.back().v], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          // v roots an SCC: pop the stack down to v.
          vidx w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc_of[w] = v;
          } while (w != v);
        }
      }
    }
  }
  return scc_of;
}

bool verify(const graph::Csr& g, std::span<const vidx> scc_id) {
  if (scc_id.size() != g.num_vertices()) return false;
  for (const vidx id : scc_id) {
    if (id >= g.num_vertices()) return false;
  }
  const auto ref = normalize_labels(reference_scc(g));
  const auto got = normalize_labels(scc_id);
  return std::equal(ref.begin(), ref.end(), got.begin());
}

}  // namespace eclp::algos::scc
