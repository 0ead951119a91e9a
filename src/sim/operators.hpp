// Gunrock-style operator substrate over the simulated device.
//
// Every kernel of the five ECL ports and the three baselines launches
// through one of a handful of shapes over device.hpp: a grid-stride
// per-item map, a frontier expansion where `width` cooperating lanes stripe
// one vertex's adjacency list, a worklist compaction, a host- or
// device-driven convergence loop, and a block-synchronous sweep to a fixed
// point. This header names those shapes — compute / advance / filter /
// iterate_until / block_jacobi — so all algorithms share one launch
// vocabulary and the profiling story attaches once, here, instead of per
// algorithm.
//
// Design constraints, in order:
//
//  * Zero-erasure dispatch. Every operator is a template over its functor
//    types and forwards straight into the Device::launch* templates — the
//    body is invoked directly, inlinable, exactly as a hand-rolled lambda
//    would be (bench_substrate_dispatch has the operator-vs-hand-rolled
//    numbers; the acceptance bar is within 5%).
//
//  * Bit-identical cost charging. An operator charges the same cost-model
//    classes, in the same order, as the loop it replaces: AdvanceShape
//    pins the per-visit coalesced row-offset charge and the per-edge
//    charge class, and the enter/edge/leave hooks run at the same points
//    the hand-rolled bodies performed their classified loads and stores.
//    Porting an algorithm onto the operators must leave every modeled
//    cycle, counter, atomic outcome, and LLC hit/miss count unchanged
//    (modeled_invariance_test and llc_invariance_test gate this with
//    goldens that are NOT regenerated on a port).
//
//  * Inherited observability. Each operator invocation opens a
//    SpanKind::kOperator span ("advance cc_compute_mid") under the current
//    profile session, so every composed algorithm gets operator-level
//    phase structure for free. No session attached -> one thread-local
//    load, nothing else.
//
// State arrays: every array a kernel touches through ThreadCtx::load/
// store/atomic_* is a sim::DeviceVector, whose page-aligned storage gives
// the modeled LLC a line grouping that depends on element indices alone.
// Frontier/worklist vectors that only the host-side loop machinery indexes
// (never through ThreadCtx) stay std::vector: they model launch
// parameters, not device state, and the LLC never sees them.
//
// Empty frontiers: operators always launch (a launch is observable in
// kernel counts and spans). Algorithms that skip a launch when its bin or
// worklist is empty — as the ECL ports do — keep that guard at the call
// site, where it is part of the algorithm's launch discipline.
//
// This header is header-only on purpose: it composes the sim, graph, and
// profile layers without adding a link edge from eclp_sim to either
// (consumers — algorithms, tests, benches — already link all three).
#pragma once

#include <bit>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "profile/session.hpp"
#include "sim/device.hpp"
#include "support/types.hpp"

namespace eclp::sim::ops {

/// RAII operator-level span: "<op> <kernel>" with SpanKind::kOperator,
/// attached to the thread-local current session; a no-op (one thread-local
/// load) when no session is active. The name string is only built when a
/// session is live, mirroring profile::ScopedSpan's iteration form.
class OpSpan {
 public:
  OpSpan(const char* op, const std::string& kernel)
      : session_(profile::Session::current()) {
    if (session_ != nullptr) {
      id_ = session_->open_span(std::string(op) + ' ' + kernel,
                                profile::SpanKind::kOperator);
    }
  }
  ~OpSpan() {
    if (session_ != nullptr) session_->close_span(id_);
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  profile::Session* session_;
  u32 id_ = 0;
};

/// Identity frontier: advance/filter over every vertex of an n-vertex
/// graph without materializing a worklist (frontier[i] == i).
struct AllVertices {
  u64 n = 0;
  u64 size() const { return n; }
  vidx operator[](u64 i) const { return static_cast<vidx>(i); }
};
inline AllVertices all_vertices(u64 n) { return AllVertices{n}; }

/// Memory-traffic shape of an advance, matching what the hand-rolled ECL
/// kernels charge. `width` cooperating lanes process one frontier vertex;
/// lane L handles adjacency entries L, L+width, L+2*width, ...
/// (width=1: thread-per-vertex; kWarpSize: warp-per-vertex; the block
/// size: block-per-vertex).
struct AdvanceShape {
  /// How the per-edge adjacency read is charged before each edge visit.
  /// kCoalesced models lanes streaming the list together (ECL-CC's
  /// compute kernels); kReads models a serial scan charged flat (ECL-GC's
  /// init kernels); kNone leaves all charging to the edge functor.
  enum class EdgeCharge : u8 { kNone, kReads, kCoalesced };

  u32 width = 1;
  /// Coalesced row-offset reads charged once per (vertex, lane) visit
  /// before `enter` runs — 2 for kernels that stream both CSR row bounds,
  /// 0 for kernels whose hand-rolled bodies never charged them.
  u32 row_offset_reads = 2;
  EdgeCharge edge_charge = EdgeCharge::kCoalesced;
};

/// Default no-op leave hook for advance().
struct NoLeave {
  template <typename State>
  void operator()(ThreadCtx&, vidx, State&) const {}
};

namespace detail {

/// Grid-stride over `items` work indices, decomposing each into
/// (frontier slot, lane) without a per-item hardware division: width 1
/// indexes directly, power-of-two widths (warp- and block-per-vertex, the
/// shapes every ECL kernel uses) shift and mask, anything else falls back
/// to div/mod. `visit(slot, lane, unit)` receives std::true_type for the
/// width-1 instantiation so callers can fold lane and stride to literals in
/// their inner loops (thread-per-vertex is the dominant advance shape). The
/// visit order and charge sequence are identical on every path — this is
/// wall-clock strength reduction only (the operator-overhead table in
/// bench_substrate_dispatch is the receipt).
template <typename Visit>
void for_each_lane(ThreadCtx& ctx, u64 items, u32 width, Visit&& visit) {
  if (width == 1) {
    for (u64 i = ctx.global_id(); i < items; i += ctx.grid_size()) {
      visit(i, 0u, std::true_type{});
    }
  } else if (std::has_single_bit(width)) {
    const u32 shift = static_cast<u32>(std::countr_zero(width));
    const u64 mask = width - 1;
    for (u64 i = ctx.global_id(); i < items; i += ctx.grid_size()) {
      visit(i >> shift, static_cast<u32>(i & mask), std::false_type{});
    }
  } else {
    for (u64 i = ctx.global_id(); i < items; i += ctx.grid_size()) {
      visit(i / width, static_cast<u32>(i % width), std::false_type{});
    }
  }
}

/// advance() body for one compile-time edge-charge class: the per-edge
/// charge is `if constexpr`, so each instantiation's adjacency walk is the
/// tight loop the hand-rolled kernels contained — no per-edge (or even
/// per-visit) dispatch on the shape. advance() switches on shape.edge_charge
/// exactly once per call to pick the instantiation.
template <AdvanceShape::EdgeCharge kCharge, typename Frontier, typename Enter,
          typename Edge, typename Leave>
KernelStats advance_with(Device& dev, const std::string& kernel,
                         LaunchConfig cfg, const graph::Csr& g,
                         const Frontier& frontier, AdvanceShape shape,
                         Enter&& enter, Edge&& edge, Leave&& leave) {
  const u64 items = static_cast<u64>(frontier.size()) * shape.width;
  const u32 width = shape.width;
  const u32 row_reads = shape.row_offset_reads;
  constexpr auto charge_edge = [](ThreadCtx& ctx) {
    if constexpr (kCharge == AdvanceShape::EdgeCharge::kReads) {
      ctx.charge_reads(1);
    } else if constexpr (kCharge == AdvanceShape::EdgeCharge::kCoalesced) {
      ctx.charge_coalesced_reads(1);
    }
  };
  if (width == 1) {
    // Thread-per-vertex, the dominant advance shape, gets its own launch
    // instantiation whose body is the literal loop a hand-rolled kernel
    // contains. Dispatching *outside* the kernel body matters: if both
    // shapes shared one body, the wide path's machinery would coexist in
    // the same function and degrade this loop's register allocation.
    return dev.launch(kernel, cfg, [&](ThreadCtx& ctx) {
      for (u64 i = ctx.global_id(); i < items; i += ctx.grid_size()) {
        const vidx v = frontier[i];
        const auto nbrs = g.neighbors(v);
        // No zero-guard: charging 0 coalesced reads adds 0 cycles, so the
        // branch would only cost time on the hot path.
        ctx.charge_coalesced_reads(row_reads);
        auto state = enter(ctx, v, 0u);
        for (const vidx u : nbrs) {
          charge_edge(ctx);
          edge(ctx, state, v, u);
        }
        leave(ctx, v, state);
      }
    });
  }
  return dev.launch(kernel, cfg, [&](ThreadCtx& ctx) {
    for_each_lane(ctx, items, width, [&](u64 slot, u32 lane, auto) {
      const vidx v = frontier[slot];
      const auto nbrs = g.neighbors(v);
      ctx.charge_coalesced_reads(row_reads);
      auto state = enter(ctx, v, lane);
      const usize deg = nbrs.size();
      for (usize e = lane; e < deg; e += width) {
        charge_edge(ctx);
        edge(ctx, state, v, nbrs[e]);
      }
      leave(ctx, v, state);
    });
  });
}

}  // namespace detail

/// compute: per-item map. Runs `body(ctx, i)` for every i in [0, items)
/// with the canonical grid-stride loop. The body owns all cost charging —
/// compute() adds no charges of its own, so a ported per-vertex kernel's
/// modeled cycles are bit-identical to its hand-rolled form.
template <typename Body>
KernelStats compute(Device& dev, const std::string& kernel, LaunchConfig cfg,
                    u64 items, Body&& body) {
  OpSpan span("compute", kernel);
  return dev.launch(kernel, cfg, [&](ThreadCtx& ctx) {
    for (u64 i = ctx.global_id(); i < items; i += ctx.grid_size()) {
      body(ctx, static_cast<vidx>(i));
    }
  });
}

/// compute over cfg.total_threads() items: one call per launched thread,
/// i == ctx.global_id(), for per-thread kernels that stride their own work.
/// Without the grid-stride loop around it, such a body costs the host what
/// a raw launch does.
template <typename Body>
KernelStats compute(Device& dev, const std::string& kernel, LaunchConfig cfg,
                    Body&& body) {
  OpSpan span("compute", kernel);
  return dev.launch(kernel, cfg,
                    [&](ThreadCtx& ctx) { body(ctx, ctx.global_id()); });
}

/// advance: per-edge expansion from a frontier (or all_vertices(n)). For
/// each frontier vertex v, `width` lanes cooperate: every lane charges the
/// shape's row-offset reads and runs `enter(ctx, v, lane)` once — its
/// return value is the lane's per-visit state (resolve a representative,
/// open an output cursor; return 0 if unused) — then strides the adjacency
/// list, charging one edge read per the shape's class before each
/// `edge(ctx, state, v, u)`, and finishes with `leave(ctx, v, state)`.
///
/// The grid covers frontier.size() * width work items; callers pass the
/// same LaunchConfig (blocks_for(items, tpb)) their hand-rolled loop used.
template <typename Frontier, typename Enter, typename Edge,
          typename Leave = NoLeave>
KernelStats advance(Device& dev, const std::string& kernel, LaunchConfig cfg,
                    const graph::Csr& g, const Frontier& frontier,
                    AdvanceShape shape, Enter&& enter, Edge&& edge,
                    Leave&& leave = Leave{}) {
  OpSpan span("advance", kernel);
  using EC = AdvanceShape::EdgeCharge;
  switch (shape.edge_charge) {
    case EC::kNone:
      return detail::advance_with<EC::kNone>(
          dev, kernel, cfg, g, frontier, shape, std::forward<Enter>(enter),
          std::forward<Edge>(edge), std::forward<Leave>(leave));
    case EC::kReads:
      return detail::advance_with<EC::kReads>(
          dev, kernel, cfg, g, frontier, shape, std::forward<Enter>(enter),
          std::forward<Edge>(edge), std::forward<Leave>(leave));
    case EC::kCoalesced: break;
  }
  return detail::advance_with<EC::kCoalesced>(
      dev, kernel, cfg, g, frontier, shape, std::forward<Enter>(enter),
      std::forward<Edge>(edge), std::forward<Leave>(leave));
}

/// filter: predicate compaction of a worklist. `width` lanes visit each
/// input vertex (cost sharing mirrors advance); `pred(ctx, v, lane)` runs
/// on every lane and owns all charging, but only lane 0's verdict decides
/// whether v is appended to `out` — the warp-cooperative "lane 0 executes,
/// every lane carries its share" pattern of ECL-GC's runLarge. The caller
/// clears/swaps `out`, exactly as the hand-rolled worklist loops do.
template <typename Frontier, typename Pred>
KernelStats filter(Device& dev, const std::string& kernel, LaunchConfig cfg,
                   const Frontier& in, u32 width, std::vector<vidx>& out,
                   Pred&& pred) {
  const u64 items = static_cast<u64>(in.size()) * width;
  OpSpan span("filter", kernel);
  return dev.launch(kernel, cfg, [&](ThreadCtx& ctx) {
    detail::for_each_lane(ctx, items, width, [&](u64 slot, u32 lane, auto) {
      const vidx v = in[slot];
      const bool keep = pred(ctx, v, lane);
      if (lane == 0 && keep) out.push_back(v);
    });
  });
}

/// Host-side convergence options for iterate_until().
struct ConvergeOptions {
  /// Each round opens a SpanKind::kIteration span "<round_base> <i>".
  const char* round_base = "round";
  /// Progress guard: the round count may not exceed this.
  u64 max_rounds = ~u64{0};
  /// Diagnostic when the guard trips.
  const char* on_exceeded = "iterate_until failed to make progress";
};

/// iterate_until (host-driven): repeat `round(iteration)` until `done()`
/// is true, numbering iterations from 1, wrapping each in an iteration
/// span and the whole loop in an operator span. Returns the number of
/// rounds executed — the "host iterations" the ECL worklist algorithms
/// report. The progress guard fires *after* a round runs, matching the
/// hand-rolled do-check-at-bottom loops it replaces.
template <typename Done, typename Round>
u64 iterate_until(const std::string& name, Done&& done, Round&& round,
                  ConvergeOptions opt = {}) {
  OpSpan span("iterate_until", name);
  u64 iterations = 0;
  while (!done()) {
    ++iterations;
    profile::ScopedSpan round_span(profile::SpanKind::kIteration,
                                   opt.round_base, iterations);
    round(iterations);
    ECLP_CHECK_MSG(iterations <= opt.max_rounds, opt.on_exceeded);
  }
  return iterations;
}

/// iterate_until (device-driven): the persistent-threads convergence shape.
/// Thin operator spelling of Device::launch_cooperative — `step(ctx)` is
/// one outer-loop iteration of a thread and returns true when that thread
/// is done; `on_round(round)` publishes round snapshots (see algos/mis) —
/// wrapped in an operator span so cooperative kernels appear in the same
/// operator vocabulary as the host-driven loops.
template <typename Step, typename OnRound = NoRoundHook>
KernelStats iterate_until(Device& dev, const std::string& kernel,
                          LaunchConfig cfg, Step&& step,
                          OnRound&& on_round = OnRound{},
                          u64 max_rounds = 1u << 22) {
  OpSpan span("iterate_until", kernel);
  return dev.launch_cooperative(kernel, cfg, std::forward<Step>(step),
                                std::forward<OnRound>(on_round), max_rounds);
}

/// block_jacobi: block-synchronous sweeps to a fixed point (ECL-SCC's
/// propagation, paper Figure 1), i.e. Device::launch_block_jacobi in an
/// operator span with its dirty-thread contract unchanged: `first` names
/// the threads of a block's first sweep (true = all of them), `commit` the
/// threads of each later one, and every other thread replays its last
/// sweep's charge, across consecutive launches of one geometry too.
template <typename Step, typename Commit, typename First = AllThreads>
KernelStats block_jacobi(Device& dev, const std::string& kernel,
                         LaunchConfig cfg, Step&& step, Commit&& commit,
                         First&& first = First{}) {
  OpSpan span("block_jacobi", kernel);
  return dev.launch_block_jacobi(kernel, cfg, std::forward<Step>(step),
                                 std::forward<Commit>(commit),
                                 std::forward<First>(first));
}

}  // namespace eclp::sim::ops
