// Operator-substrate tests (src/sim/operators.hpp): compute / advance /
// filter / iterate_until / block_jacobi must be drop-in equivalents of the
// hand-rolled launch loops they abstract — same outputs, same modeled
// cycles, same modeled-LLC hit/miss counts, same 1-vs-N worker bit-identity
// for block-independent launches — and must open SpanKind::kOperator spans
// under an attached profile session, with the kernel span nested inside.
// Every kernel of the eight algorithms launches through one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algos/baselines/fw_bw_scc.hpp"
#include "algos/baselines/label_prop_cc.hpp"
#include "algos/baselines/luby_mis.hpp"
#include "algos/cc/ecl_cc.hpp"
#include "algos/common.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/transforms.hpp"
#include "profile/session.hpp"
#include "sim/operators.hpp"
#include "support/check.hpp"
#include "support/pool.hpp"
#include "support/prng.hpp"

namespace eclp {
namespace {

using algos::blocks_for;
using sim::Device;
using sim::LaunchConfig;
using sim::ThreadCtx;
namespace ops = sim::ops;
using Shape = ops::AdvanceShape;

/// A hub (vertex 0, degree 6) plus a path along the rim: degrees vary from
/// 1 to 6, so stripe loops see uneven adjacency lists.
graph::Csr wheel() {
  std::vector<graph::Edge> edges;
  for (vidx v = 1; v <= 6; ++v) edges.push_back({0, v, 0});
  for (vidx v = 1; v < 6; ++v) edges.push_back({v, v + 1, 0});
  return graph::from_edges(7, edges);
}

// --- compute -----------------------------------------------------------------

TEST(Operators, ComputeMatchesHandRolledGridStrideLoop) {
  const vidx n = 1000;
  const LaunchConfig cfg{4, 64};  // 256 threads over 1000 items: grid-strides

  Device hand_dev;
  std::vector<u32> hand_out(n, 0);
  hand_dev.launch("square", cfg, [&](ThreadCtx& ctx) {
    for (vidx v = ctx.global_id(); v < n; v += ctx.grid_size()) {
      ctx.charge_reads(1);
      ctx.charge_alu(2);
      hand_out[v] = v * v;
      ctx.charge_writes(1);
    }
  });

  Device op_dev;
  std::vector<u32> op_out(n, 0);
  const auto ks =
      ops::compute(op_dev, "square", cfg, n, [&](ThreadCtx& ctx, vidx v) {
        ctx.charge_reads(1);
        ctx.charge_alu(2);
        op_out[v] = v * v;
        ctx.charge_writes(1);
      });

  EXPECT_EQ(op_out, hand_out);
  EXPECT_EQ(op_dev.total_cycles(), hand_dev.total_cycles());
  EXPECT_EQ(ks.cost.modeled_cycles, hand_dev.total_cycles());
  EXPECT_EQ(ks.name, "square");
}

TEST(Operators, PerThreadComputeCallsEachThreadOnceLikeARawLaunch) {
  const LaunchConfig cfg{3, 32};
  const auto kernel = [](std::vector<u32>& calls) {
    return [&calls](ThreadCtx& ctx, vidx i) {
      ctx.charge_alu(1 + i % 3);
      calls[i] += (i == ctx.global_id()) ? 1 : 100;
    };
  };
  Device hand_dev;
  std::vector<u32> hand_calls(cfg.total_threads(), 0);
  const auto hand_body = kernel(hand_calls);
  hand_dev.launch("per_thread", cfg,
                  [&](ThreadCtx& ctx) { hand_body(ctx, ctx.global_id()); });

  Device op_dev;
  std::vector<u32> op_calls(cfg.total_threads(), 0);
  ops::compute(op_dev, "per_thread", cfg, kernel(op_calls));

  EXPECT_EQ(op_calls, std::vector<u32>(cfg.total_threads(), 1));
  EXPECT_EQ(op_calls, hand_calls);
  EXPECT_EQ(op_dev.total_cycles(), hand_dev.total_cycles());
}

// --- advance -----------------------------------------------------------------

/// Hand-rolled equivalent of the advance shape: per (vertex, lane) visit,
/// charge the row offsets, run enter, stripe the adjacency list charging
/// one edge read before each edge, then leave. This is the literal loop
/// ECL-CC/GC ran before the port.
template <typename Enter, typename Edge, typename Leave>
void hand_advance(Device& dev, const std::string& name, LaunchConfig cfg,
                  const graph::Csr& g, const std::vector<vidx>& frontier,
                  Shape shape, Enter&& enter, Edge&& edge, Leave&& leave) {
  const u64 items = static_cast<u64>(frontier.size()) * shape.width;
  dev.launch(name, cfg, [&](ThreadCtx& ctx) {
    for (u64 i = ctx.global_id(); i < items; i += ctx.grid_size()) {
      const vidx v = frontier[i / shape.width];
      const u32 lane = static_cast<u32>(i % shape.width);
      const auto nbrs = g.neighbors(v);
      if (shape.row_offset_reads != 0) {
        ctx.charge_coalesced_reads(shape.row_offset_reads);
      }
      auto state = enter(ctx, v, lane);
      for (usize e = lane; e < nbrs.size(); e += shape.width) {
        if (shape.edge_charge == Shape::EdgeCharge::kReads) {
          ctx.charge_reads(1);
        } else if (shape.edge_charge == Shape::EdgeCharge::kCoalesced) {
          ctx.charge_coalesced_reads(1);
        }
        edge(ctx, state, v, nbrs[e]);
      }
      leave(ctx, v, state);
    }
  });
}

TEST(Operators, AdvanceMatchesHandRolledStripeLoopAtEveryWidth) {
  const auto g = wheel();
  const std::vector<vidx> frontier = {0, 2, 5, 6};
  for (const u32 width : {1u, 4u, 32u}) {
    const Shape shape{.width = width,
                      .row_offset_reads = 2,
                      .edge_charge = Shape::EdgeCharge::kCoalesced};
    const u64 items = static_cast<u64>(frontier.size()) * width;
    const LaunchConfig cfg = blocks_for(items, 8);

    // Sum of neighbor ids per frontier vertex, accumulated lane-locally and
    // flushed by leave() — every lane contributes its stripe.
    Device hand_dev;
    std::vector<u64> hand_sum(g.num_vertices(), 0);
    const auto enter = [](ThreadCtx& ctx, vidx, u32) -> u64 {
      ctx.charge_alu(1);
      return 0;
    };
    const auto edge = [](ThreadCtx&, u64& sum, vidx, vidx u) { sum += u; };
    hand_advance(hand_dev, "nbr_sum", cfg, g, frontier, shape, enter, edge,
                 [&](ThreadCtx& ctx, vidx v, u64& sum) {
                   hand_sum[v] += sum;
                   ctx.charge_writes(1);
                 });

    Device op_dev;
    std::vector<u64> op_sum(g.num_vertices(), 0);
    ops::advance(op_dev, "nbr_sum", cfg, g, frontier, shape, enter, edge,
                 [&](ThreadCtx& ctx, vidx v, u64& sum) {
                   op_sum[v] += sum;
                   ctx.charge_writes(1);
                 });

    EXPECT_EQ(op_sum, hand_sum) << "width " << width;
    EXPECT_EQ(op_dev.total_cycles(), hand_dev.total_cycles())
        << "width " << width;
    // Spot-check the data: vertex 0's six neighbors are 1..6.
    EXPECT_EQ(op_sum[0], 21u) << "width " << width;
  }
}

TEST(Operators, AdvanceChargesFollowTheDeclaredShape) {
  const auto g = wheel();
  const u64 edges_touched = g.neighbors(0).size();  // frontier = {0}
  const std::vector<vidx> frontier = {0};
  const LaunchConfig cfg{1, 1};
  const auto no_state = [](ThreadCtx&, vidx, u32) { return 0; };
  const auto no_edge = [](ThreadCtx&, int&, vidx, vidx) {};
  // Compare the summed per-thread charges: total_cycles() would fold in the
  // launch/block overheads and the SM throughput formula, which are not what
  // the shape controls.
  const auto run = [&](Shape shape) {
    Device dev;
    return ops::advance(dev, "charges", cfg, g, frontier, shape, no_state,
                        no_edge)
        .cost.thread_work;
  };
  const sim::CostModel cost;  // defaults, same as Device's
  EXPECT_EQ(run({.width = 1,
                 .row_offset_reads = 2,
                 .edge_charge = Shape::EdgeCharge::kCoalesced}),
            2 * cost.coalesced_read + edges_touched * cost.coalesced_read);
  EXPECT_EQ(run({.width = 1,
                 .row_offset_reads = 0,
                 .edge_charge = Shape::EdgeCharge::kReads}),
            edges_touched * cost.global_read);
  EXPECT_EQ(run({.width = 1,
                 .row_offset_reads = 0,
                 .edge_charge = Shape::EdgeCharge::kNone}),
            0u);
}

TEST(Operators, AdvanceOverAllVerticesVisitsEveryEdgeOnce) {
  const auto g = wheel();
  Device dev;
  u64 visited = 0;
  ops::advance(dev, "count", blocks_for(g.num_vertices(), 4), g,
               ops::all_vertices(g.num_vertices()),
               Shape{.width = 1,
                     .row_offset_reads = 0,
                     .edge_charge = Shape::EdgeCharge::kNone},
               [](ThreadCtx&, vidx, u32) { return 0; },
               [&](ThreadCtx&, int&, vidx, vidx) { ++visited; });
  EXPECT_EQ(visited, g.num_edges());  // each directed CSR entry exactly once
}

// --- filter ------------------------------------------------------------------

TEST(Operators, FilterMatchesHandRolledCompaction) {
  // Keep vertices whose id is odd; the hand-rolled loop is the worklist
  // pattern of ECL-GC's run_small.
  std::vector<vidx> in;
  for (vidx v = 0; v < 100; ++v) in.push_back(v);
  const LaunchConfig cfg = blocks_for(in.size(), 16);

  Device hand_dev;
  std::vector<vidx> hand_out;
  hand_dev.launch("odd", cfg, [&](ThreadCtx& ctx) {
    for (u64 i = ctx.global_id(); i < in.size(); i += ctx.grid_size()) {
      const vidx v = in[i];
      ctx.charge_reads(1);
      if (v % 2 == 1) hand_out.push_back(v);
    }
  });

  Device op_dev;
  std::vector<vidx> op_out;
  ops::filter(op_dev, "odd", cfg, in, 1, op_out,
              [](ThreadCtx& ctx, vidx v, u32) {
                ctx.charge_reads(1);
                return v % 2 == 1;
              });

  EXPECT_EQ(op_out, hand_out);
  EXPECT_EQ(op_out.size(), 50u);
  EXPECT_EQ(op_dev.total_cycles(), hand_dev.total_cycles());
}

TEST(Operators, FilterWideLanesShareCostButOnlyLaneZeroDecides) {
  // Warp-cooperative filtering (ECL-GC run_large): lane 0 evaluates, every
  // lane charges a 1/width share; the output holds each kept vertex once.
  constexpr u32 kWidth = 4;
  const std::vector<vidx> in = {10, 11, 12, 13, 14};
  const LaunchConfig cfg = blocks_for(in.size() * kWidth, 8);
  Device dev;
  u64 evaluations = 0;
  std::vector<vidx> out;
  const auto ks = ops::filter(dev, "wide", cfg, in, kWidth, out,
                              [&](ThreadCtx& ctx, vidx v, u32 lane) {
                                if (lane == 0) ++evaluations;
                                ctx.charge_reads(1);  // every lane's share
                                return v != 12;
                              });
  EXPECT_EQ(out, (std::vector<vidx>{10, 11, 13, 14}));
  EXPECT_EQ(evaluations, in.size());  // one pass per vertex, not per lane
  const sim::CostModel cost;
  EXPECT_EQ(ks.cost.thread_work, u64{in.size()} * kWidth * cost.global_read);
}

// --- iterate_until -----------------------------------------------------------

TEST(Operators, IterateUntilHostCountsRoundsAndStopsWhenDone) {
  int remaining = 3;
  u64 seen = 0;
  const u64 rounds = ops::iterate_until(
      "countdown", [&] { return remaining == 0; },
      [&](u64 round) {
        --remaining;
        seen = round;
      });
  EXPECT_EQ(rounds, 3u);
  EXPECT_EQ(seen, 3u);  // rounds number from 1
  EXPECT_EQ(remaining, 0);
}

TEST(Operators, IterateUntilHostRunsZeroRoundsWhenAlreadyConverged) {
  bool ran = false;
  const u64 rounds =
      ops::iterate_until("noop", [] { return true; }, [&](u64) { ran = true; });
  EXPECT_EQ(rounds, 0u);
  EXPECT_FALSE(ran);
}

TEST(Operators, IterateUntilHostProgressGuardThrowsTheGivenDiagnostic) {
  try {
    ops::iterate_until(
        "stuck", [] { return false; }, [](u64) {},
        {.round_base = "round",
         .max_rounds = 5,
         .on_exceeded = "stuck loop failed to make progress"});
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("stuck loop failed to make progress"),
              std::string::npos)
        << e.what();
  }
}

TEST(Operators, IterateUntilCooperativeMatchesLaunchCooperative) {
  const LaunchConfig cfg{2, 8};
  const auto make_step = [](std::vector<u32>& todo) {
    return [&todo](ThreadCtx& ctx) {
      ctx.charge_alu(1);
      return --todo[ctx.global_id()] == 0;
    };
  };
  const auto seed_todo = [&] {
    std::vector<u32> todo(cfg.total_threads());
    for (u32 i = 0; i < todo.size(); ++i) todo[i] = 1 + i % 5;
    return todo;
  };

  Device hand_dev;
  auto hand_todo = seed_todo();
  const auto hand_ks =
      hand_dev.launch_cooperative("steps", cfg, make_step(hand_todo));

  Device op_dev;
  auto op_todo = seed_todo();
  const auto op_ks =
      ops::iterate_until(op_dev, "steps", cfg, make_step(op_todo));

  EXPECT_EQ(op_ks.cooperative_rounds, hand_ks.cooperative_rounds);
  EXPECT_EQ(op_ks.cooperative_rounds, 5u);
  EXPECT_EQ(op_dev.total_cycles(), hand_dev.total_cycles());
  EXPECT_EQ(op_todo, hand_todo);
}

TEST(Operators, BlockJacobiMatchesLaunchBlockJacobi) {
  // Each block carries its first thread's value along its threads, one hop
  // per sweep; the commit names the next reader dirty.
  const LaunchConfig cfg{2, 8};
  struct Run {
    std::vector<u32> val = std::vector<u32>(16, 1);
    std::vector<std::vector<std::pair<u32, u32>>> pending =
        std::vector<std::vector<std::pair<u32, u32>>>(2);
    auto step() {
      return [this](ThreadCtx& ctx, u64) {
        const u32 i = ctx.global_id();
        ctx.charge_reads(2);
        if (ctx.thread_idx() > 0 && val[i - 1] > val[i]) {
          pending[ctx.block_idx()].push_back({i, val[i - 1]});
        }
      };
    }
    auto commit() {
      return [this](u32 b, u64, std::vector<u32>& dirty) {
        const bool any = !pending[b].empty();
        for (const auto& [i, v] : pending[b]) {
          val[i] = v;
          if (i % 8 + 1 < 8) dirty.push_back(i % 8 + 1);
        }
        pending[b].clear();
        return any;
      };
    }
  };
  Run hand, op;
  hand.val[0] = op.val[0] = 5;
  hand.val[8] = op.val[8] = 7;

  Device hand_dev;
  const auto hand_ks =
      hand_dev.launch_block_jacobi("prop", cfg, hand.step(), hand.commit());
  Device op_dev;
  profile::Session session(op_dev);
  const auto op_ks = ops::block_jacobi(op_dev, "prop", cfg, op.step(),
                                       op.commit());
  session.finalize();

  EXPECT_EQ(op.val, hand.val);
  EXPECT_EQ(op_ks.block_inner_iterations, hand_ks.block_inner_iterations);
  EXPECT_EQ(op_dev.total_cycles(), hand_dev.total_cycles());
  const auto spans = session.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "block_jacobi prop");
  EXPECT_EQ(spans[0].kind, profile::SpanKind::kOperator);
  EXPECT_EQ(spans[1].parent, 0);
}

// --- modeled LLC equivalence -------------------------------------------------

sim::CostModel llc_cost() {
  sim::CostModel cost;
  cost.cache.enabled = true;
  cost.cache.line_bytes = 64;
  cost.cache.ways = 4;
  cost.cache.sets = 16;
  return cost;
}

TEST(Operators, AdvanceUnderModeledLlcMatchesHandRolledHitsAndMisses) {
  const auto g = wheel();
  const vidx n = g.num_vertices();
  const std::vector<vidx> frontier = {0, 3, 6};
  const Shape shape{.width = 1,
                    .row_offset_reads = 2,
                    .edge_charge = Shape::EdgeCharge::kCoalesced};
  const LaunchConfig cfg = blocks_for(frontier.size(), 4);

  // Classified per-edge loads into a device label array: the access
  // sequence (and so every LLC hit/miss) must survive the port verbatim.
  using Labels = sim::DeviceVector<u32>;
  const auto run = [&](auto&& launcher) {
    Device dev(llc_cost());
    Labels labels(n, 7);
    u64 sum = 0;
    launcher(dev, labels, sum);
    return std::tuple{dev.total_cycles(), dev.llc_hits(), dev.llc_misses(),
                      sum};
  };

  const auto hand = run([&](Device& dev, Labels& labels, u64& sum) {
    hand_advance(dev, "chase", cfg, g, frontier, shape,
                 [](ThreadCtx&, vidx, u32) { return 0; },
                 [&](ThreadCtx& ctx, int&, vidx, vidx u) {
                   sum += ctx.load(labels[u]);
                 },
                 ops::NoLeave{});
  });
  const auto op = run([&](Device& dev, Labels& labels, u64& sum) {
    ops::advance(dev, "chase", cfg, g, frontier, shape,
                 [](ThreadCtx&, vidx, u32) { return 0; },
                 [&](ThreadCtx& ctx, int&, vidx, vidx u) {
                   sum += ctx.load(labels[u]);
                 });
  });

  EXPECT_EQ(op, hand);
  EXPECT_GT(std::get<2>(op), 0u);  // the cache actually classified accesses
}

// --- block-independent worker invariance ------------------------------------

TEST(Operators, BlockIndependentComputeIsBitIdenticalAcrossWorkerCounts) {
  const vidx n = 4096;
  LaunchConfig cfg = blocks_for(n, 64);
  cfg.block_independent = true;

  const auto run = [&](u32 workers) {
    Pool pool(workers);
    Device dev;
    dev.set_pool(workers > 1 ? &pool : nullptr);
    std::vector<u64> out(n, 0);
    ops::compute(dev, "fill", cfg, n, [&](ThreadCtx& ctx, vidx v) {
      ctx.charge_reads(1);
      ctx.charge_alu(3);
      out[v] = splitmix64(v);
      ctx.charge_writes(1);
    });
    return std::pair{dev.total_cycles(), std::move(out)};
  };

  const auto one = run(1);
  for (const u32 workers : {2u, 7u}) {
    const auto many = run(workers);
    EXPECT_EQ(many.first, one.first) << workers << " workers";
    EXPECT_EQ(many.second, one.second) << workers << " workers";
  }
}

// --- operator spans ----------------------------------------------------------

TEST(Operators, OperatorsOpenOperatorSpansWithTheKernelNested) {
  const auto g = wheel();
  Device dev;
  profile::Session session(dev);
  std::vector<vidx> out;
  ops::compute(dev, "mapk", {1, 8}, g.num_vertices(),
               [](ThreadCtx& ctx, vidx) { ctx.charge_alu(1); });
  ops::filter(dev, "filtk", {1, 8}, std::vector<vidx>{1, 2, 3}, 1, out,
              [](ThreadCtx&, vidx v, u32) { return v == 2; });
  ops::iterate_until("loopk", [&] { return out.empty(); },
                     [&](u64) { out.clear(); });
  session.finalize();

  const auto spans = session.spans();
  // compute: operator + kernel; filter: operator + kernel; iterate_until:
  // operator + one iteration span.
  ASSERT_EQ(spans.size(), 6u);
  EXPECT_EQ(spans[0].kind, profile::SpanKind::kOperator);
  EXPECT_EQ(spans[0].name, "compute mapk");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].kind, profile::SpanKind::kKernel);
  EXPECT_EQ(spans[1].name, "mapk");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "filter filtk");
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[4].kind, profile::SpanKind::kOperator);
  EXPECT_EQ(spans[4].name, "iterate_until loopk");
  EXPECT_EQ(spans[5].kind, profile::SpanKind::kIteration);
  EXPECT_EQ(spans[5].name, "round 1");
  EXPECT_EQ(spans[5].parent, 4);
  // Operator spans carry the launch/cycle deltas of their kernels.
  EXPECT_EQ(spans[0].launches, 1u);
  EXPECT_EQ(spans[0].cycles(), spans[1].cycles());
  EXPECT_EQ(std::string(profile::span_kind_name(spans[0].kind)), "operator");
}

// Every kernel span of the five ECL ports and the three baselines sits
// directly under the operator span "<op> <kernel>" that launched it.
TEST(Operators, EveryAlgorithmKernelLaunchesThroughAnOperator) {
  const auto input = [](const char* name) {
    return gen::find_input(name).make(gen::Scale::kTiny);
  };
  const auto rmat = input("rmat16.sym");
  const auto internet = input("internet");
  const auto road = graph::with_random_weights(input("USA-road-d.NY"), 1);
  const auto cold_flow = input("cold-flow");
  const std::pair<const char*, std::function<void(Device&)>> runs[] = {
      {"cc", [&](Device& dev) { algos::cc::run(dev, rmat); }},
      {"gc", [&](Device& dev) { algos::gc::run(dev, rmat); }},
      {"mis", [&](Device& dev) { algos::mis::run(dev, internet); }},
      {"mst", [&](Device& dev) { algos::mst::run(dev, road); }},
      {"scc", [&](Device& dev) { algos::scc::run(dev, cold_flow); }},
      {"label_prop_cc",
       [&](Device& dev) { algos::baselines::label_prop_cc(dev, rmat); }},
      {"luby_mis",
       [&](Device& dev) { algos::baselines::luby_mis(dev, internet); }},
      {"fw_bw_scc",
       [&](Device& dev) { algos::baselines::fw_bw_scc(dev, cold_flow); }},
  };
  const std::string operators[] = {"compute", "advance", "filter",
                                   "iterate_until", "block_jacobi"};
  for (const auto& [algo, run] : runs) {
    Device dev;
    profile::Session session(dev);
    run(dev);
    session.finalize();
    const auto spans = session.spans();
    usize kernels = 0;
    for (const auto& span : spans) {
      if (span.kind != profile::SpanKind::kKernel) continue;
      ++kernels;
      EXPECT_GE(span.parent, 0) << algo << ": " << span.name;
      if (span.parent < 0) continue;
      const auto& op = spans[static_cast<usize>(span.parent)];
      EXPECT_EQ(op.kind, profile::SpanKind::kOperator)
          << algo << ": " << span.name << " under " << op.name;
      const usize space = op.name.find(' ');
      EXPECT_NE(std::find(std::begin(operators), std::end(operators),
                          op.name.substr(0, space)),
                std::end(operators))
          << algo << ": " << op.name;
      EXPECT_EQ(op.name.substr(space + 1), span.name) << algo;
    }
    EXPECT_GT(kernels, 0u) << algo;
  }
}

}  // namespace
}  // namespace eclp
