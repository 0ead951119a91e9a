#include "algos/mis/ecl_mis.hpp"

#include <algorithm>

#include "algos/common.hpp"
#include "profile/session.hpp"
#include "sim/operators.hpp"
#include "support/prng.hpp"

namespace eclp::algos::mis {

namespace {

bool undecided(u8 s) { return s >= kUndecidedBase && s <= kUndecidedTop; }

u64 tie_hash(vidx v) { return splitmix64(0x6d69735f68617368ULL ^ v); }

/// Strict total order on undecided vertices: priority byte, then hash, then
/// id. Returns true when a beats b.
bool beats(u8 stat_a, vidx a, u8 stat_b, vidx b) {
  if (stat_a != stat_b) return stat_a > stat_b;
  const u64 ha = tie_hash(a), hb = tie_hash(b);
  if (ha != hb) return ha > hb;
  return a > b;
}

}  // namespace

u8 priority_byte(vidx v, vidx degree) {
  // Number of bits of (degree): doubling the degree drops one band. Low
  // degree => high priority, the bias the paper describes ("favors
  // low-degree vertices"), which is known to grow the MIS.
  u32 band = 0;
  for (vidx d = degree; d != 0; d >>= 1) ++band;
  band = std::min<u32>(band, 14);
  const u32 base = (14 - band) * 16 + 16;  // 16 .. 240
  const u32 tie = static_cast<u32>(tie_hash(v) % 13);  // jitter within band
  const u32 value = std::clamp<u32>(base + tie - 6, kUndecidedBase,
                                    kUndecidedTop);
  return static_cast<u8>(value);
}

Result run(sim::Device& dev, const graph::Csr& g, const Options& opt) {
  ECLP_CHECK_MSG(!g.directed(), "ECL-MIS expects an undirected graph");
  profile::ScopedSpan algo_span("ecl-mis", profile::SpanKind::kAlgorithm);
  const vidx n = g.num_vertices();
  sim::LaunchConfig cfg;
  cfg.blocks = opt.blocks;
  cfg.threads_per_block = opt.threads_per_block;
  const u32 total_threads = cfg.total_threads();

  Result res;
  sim::DeviceVector<u8> stat(n);
  const u64 cycles_before = dev.total_cycles();

  // --- initialization: one-byte status+priority per vertex -------------------
  const auto byte_of = [&](vidx v) -> u8 {
    switch (opt.priority) {
      case Priority::kDegreeAware:
        return priority_byte(v, g.degree(v));
      case Priority::kUniformHash:
        return static_cast<u8>(kUndecidedBase +
                               tie_hash(v) % (kUndecidedTop - kUndecidedBase));
      case Priority::kVertexId:
        return kUndecidedBase;  // all ties; the id breaks them
    }
    return kUndecidedBase;
  };
  // Pure per-vertex map (each thread writes only its own vertices' bytes):
  // safe to fan blocks across the host pool. The selection kernel below is
  // not — its mid-round snapshot refreshes are order-dependent by design.
  sim::LaunchConfig init_cfg = cfg;
  init_cfg.block_independent = true;
  profile::ScopedSpan init_span("init");
  sim::ops::compute(dev, "mis_init", init_cfg, n,
                    [&](sim::ThreadCtx& ctx, vidx v) {
                      ctx.charge_reads(2);  // degree from row offsets
                      ctx.store(stat[v], byte_of(v));
                    });
  init_span.end();
  // Strict total order on undecided vertices under the chosen priority.
  const auto wins = [&](u8 stat_a, vidx a, u8 stat_b, vidx b) {
    if (opt.priority == Priority::kVertexId) return a > b;
    return beats(stat_a, a, stat_b, b);
  };

  // --- selection: persistent threads, vertices round-robin -------------------
  profile::PerThreadCounter iterations(total_threads);
  profile::PerThreadCounter assigned(total_threads);
  profile::PerThreadCounter finalized(total_threads);
  for (vidx v = 0; v < n; ++v) assigned.inc(v % total_threads);

  // In round-snapshot mode, neighbor statuses are read from `snap`, the
  // state published at the previous round boundary (see Options::Visibility).
  const bool jacobi = opt.visibility == Visibility::kRoundSnapshot;
  sim::DeviceVector<u8> snap = stat;
  const sim::DeviceVector<u8>& view = jacobi ? snap : stat;

  const u64 quantum = opt.quantum;
  // Mid-round snapshot refresh cadence: after this many processed vertices
  // (across all threads), the published view catches up with live state.
  const u64 refresh_every =
      opt.snapshot_refreshes_per_round == 0
          ? ~u64{0}
          : std::max<u64>(1, n / opt.snapshot_refreshes_per_round);
  u64 processed_since_refresh = 0;

  profile::ScopedSpan select_span("selection");
  // Persistent-threads convergence: each thread's step processes its owned
  // vertices once; the device-driven iterate_until advances every
  // unfinished thread round-robin until all report done.
  sim::ops::iterate_until(
      dev, "mis_select", cfg,
      [&](sim::ThreadCtx& ctx) {
        const u32 tid = ctx.global_id();
        u64 spent = 0;
        bool all_decided;
        do {
          // One outer-loop iteration: process every still-undecided owned
          // vertex (this is the iteration the paper's Table 2 counts).
          iterations.inc(tid);
          ctx.charge_alu(1);
          spent += 1;
          all_decided = true;
          for (vidx v = tid; v < n; v += total_threads) {
            if (jacobi && ++processed_since_refresh >= refresh_every) {
              processed_since_refresh = 0;
              snap = stat;  // bounded staleness: publish mid-round
            }
            const u8 sv = ctx.load(stat[v]);
            spent += 1;
            if (!undecided(sv)) continue;
            // Short-circuit scan of the neighborhood (paper §2.3): stop as
            // soon as an 'in' neighbor or a stronger undecided neighbor is
            // found.
            bool lost = false;
            bool neighbor_in = false;
            for (const vidx u : g.neighbors(v)) {
              const u8 su = ctx.load(view[u]);
              spent += 1;
              if (su == kIn) {
                neighbor_in = true;
                break;
              }
              if (undecided(su) && wins(su, u, sv, v)) {
                lost = true;
                break;
              }
            }
            if (neighbor_in) {
              ctx.store(stat[v], kOut);
            } else if (!lost) {
              // Finalize: v joins the MIS and its neighbors drop out. The
              // updates are monotonic, so no synchronization is required.
              ctx.store(stat[v], kIn);
              finalized.inc(tid);
              for (const vidx u : g.neighbors(v)) {
                if (undecided(ctx.load(stat[u]))) ctx.store(stat[u], kOut);
                spent += 1;
              }
            } else {
              all_decided = false;
            }
          }
          // Keep iterating inside this wall-clock quantum; with a frozen
          // snapshot view nothing can change mid-round, so spinning is pure
          // (counted) re-checking, as on the real GPU.
        } while (!all_decided && jacobi && spent < quantum);
        return all_decided;
      },
      [&](u64 /*round*/) {
        if (jacobi) snap = stat;
      });

  res.modeled_cycles = dev.total_cycles() - cycles_before;
  res.metrics.iterations = iterations.summary();
  res.metrics.vertices_assigned = assigned.summary();
  res.metrics.vertices_finalized = finalized.summary();
  res.set_size = static_cast<usize>(
      std::count(stat.begin(), stat.end(), kIn));
  res.status = std::move(stat);
  return res;
}

std::vector<u8> reference_greedy(const graph::Csr& g) {
  const vidx n = g.num_vertices();
  std::vector<u8> status(n, kUndecidedBase);
  for (vidx v = 0; v < n; ++v) {
    if (status[v] != kUndecidedBase) continue;
    status[v] = kIn;
    for (const vidx u : g.neighbors(v)) status[u] = kOut;
  }
  return status;
}

bool verify(const graph::Csr& g, std::span<const u8> status) {
  if (status.size() != g.num_vertices()) return false;
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    if (status[v] != kIn && status[v] != kOut) return false;  // undecided
    if (status[v] == kIn) {
      // Independence: no two adjacent 'in' vertices.
      for (const vidx u : g.neighbors(v)) {
        if (u != v && status[u] == kIn) return false;
      }
    } else {
      // Maximality: every 'out' vertex must be blocked by an 'in' neighbor.
      bool blocked = false;
      for (const vidx u : g.neighbors(v)) {
        if (status[u] == kIn) {
          blocked = true;
          break;
        }
      }
      if (!blocked) return false;
    }
  }
  return true;
}

}  // namespace eclp::algos::mis
