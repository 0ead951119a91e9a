#include <gtest/gtest.h>

#include <set>

#include "profile/timeline.hpp"
#include "sim/device.hpp"

namespace eclp::sim {
namespace {

// --- launch geometry -----------------------------------------------------------

TEST(Device, LaunchRunsEveryThreadOnce) {
  Device dev;
  LaunchConfig cfg{4, 32};
  std::vector<int> hits(cfg.total_threads(), 0);
  dev.launch("t", cfg, [&](ThreadCtx& ctx) { hits[ctx.global_id()]++; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Device, ThreadIdsAreConsistent) {
  Device dev;
  LaunchConfig cfg{3, 8};
  dev.launch("t", cfg, [&](ThreadCtx& ctx) {
    EXPECT_EQ(ctx.global_id(), ctx.block_idx() * 8 + ctx.thread_idx());
    EXPECT_EQ(ctx.block_dim(), 8u);
    EXPECT_EQ(ctx.grid_dim(), 3u);
    EXPECT_EQ(ctx.grid_size(), 24u);
    EXPECT_LT(ctx.block_idx(), 3u);
    EXPECT_LT(ctx.thread_idx(), 8u);
  });
}

TEST(Device, ZeroBlocksRejected) {
  Device dev;
  EXPECT_THROW(dev.launch("t", {0, 32}, [](ThreadCtx&) {}), CheckFailure);
}

TEST(Device, ShuffledLaunchVisitsAllThreads) {
  Device dev({}, 42, ScheduleMode::kShuffled);
  LaunchConfig cfg{2, 16};
  std::set<u32> seen;
  dev.launch("t", cfg, [&](ThreadCtx& ctx) { seen.insert(ctx.global_id()); });
  EXPECT_EQ(seen.size(), 32u);
}

TEST(Device, ShuffledOrderDependsOnSeedOnly) {
  const auto order_for = [](u64 seed) {
    Device dev({}, seed, ScheduleMode::kShuffled);
    std::vector<u32> order;
    dev.launch("t", {1, 64},
               [&](ThreadCtx& ctx) { order.push_back(ctx.global_id()); });
    return order;
  };
  EXPECT_EQ(order_for(1), order_for(1));
  EXPECT_NE(order_for(1), order_for(2));
}

// --- cost model -----------------------------------------------------------------

TEST(CostModel, LaunchOverheadAlwaysCharged) {
  CostModel cm;
  Device dev(cm);
  dev.launch("empty", {1, 1}, [](ThreadCtx&) {});
  EXPECT_GE(dev.total_cycles(), cm.launch_overhead);
  EXPECT_EQ(dev.kernel_launches(), 1u);
}

TEST(CostModel, WorkScalesCycles) {
  CostModel cm;
  Device light(cm), heavy(cm);
  light.launch("l", {4, 64}, [](ThreadCtx& ctx) { ctx.charge_alu(10); });
  heavy.launch("h", {4, 64}, [](ThreadCtx& ctx) { ctx.charge_alu(10000); });
  EXPECT_GT(heavy.total_cycles(), light.total_cycles());
}

TEST(CostModel, IdenticalRunsGiveIdenticalCycles) {
  const auto run_once = [] {
    Device dev;
    dev.launch("k", {8, 32}, [](ThreadCtx& ctx) {
      ctx.charge_reads(3);
      ctx.charge_writes(1);
    });
    return dev.total_cycles();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(CostModel, HostOpCharges) {
  CostModel cm;
  Device dev(cm);
  dev.host_op(3);
  EXPECT_EQ(dev.total_cycles(), 3 * cm.host_op);
}

TEST(CostModel, ResetCyclesZeroes) {
  Device dev;
  dev.host_op();
  dev.reset_cycles();
  EXPECT_EQ(dev.total_cycles(), 0u);
}

TEST(CostModel, MoreBlocksCostMoreOverhead) {
  CostModel cm;
  Device few(cm), many(cm);
  // Same total work, different granularity: more blocks -> more block
  // scheduling overhead.
  few.launch("f", {1, 256}, [](ThreadCtx& ctx) { ctx.charge_alu(1); });
  many.launch("m", {256, 1}, [](ThreadCtx& ctx) { ctx.charge_alu(1); });
  EXPECT_GT(many.total_cycles(), few.total_cycles());
}

// --- atomics ---------------------------------------------------------------------

TEST(Atomics, CasSuccessAndFailureOutcomes) {
  Device dev;
  u32 target = 5;
  dev.launch("t", {1, 1}, [&](ThreadCtx& ctx) {
    EXPECT_EQ(ctx.atomic_cas(target, 5u, 9u), 5u);  // success
    EXPECT_EQ(target, 9u);
    EXPECT_EQ(ctx.atomic_cas(target, 5u, 7u), 9u);  // failure
    EXPECT_EQ(target, 9u);
  });
  EXPECT_EQ(dev.atomic_stats().count(AtomicOutcome::kCasSuccess), 1u);
  EXPECT_EQ(dev.atomic_stats().count(AtomicOutcome::kCasFailure), 1u);
  EXPECT_DOUBLE_EQ(dev.atomic_stats().cas_failure_rate(), 0.5);
}

TEST(Atomics, MinMaxEffectiveness) {
  Device dev;
  u32 lo = 10, hi = 10;
  dev.launch("t", {1, 1}, [&](ThreadCtx& ctx) {
    EXPECT_TRUE(ctx.atomic_min(lo, 3u));
    EXPECT_FALSE(ctx.atomic_min(lo, 8u));  // ineffective
    EXPECT_TRUE(ctx.atomic_max(hi, 20u));
    EXPECT_FALSE(ctx.atomic_max(hi, 1u));  // ineffective
  });
  EXPECT_EQ(lo, 3u);
  EXPECT_EQ(hi, 20u);
  const auto& st = dev.atomic_stats();
  EXPECT_EQ(st.count(AtomicOutcome::kMinEffective), 1u);
  EXPECT_EQ(st.count(AtomicOutcome::kMinIneffective), 1u);
  EXPECT_EQ(st.count(AtomicOutcome::kMaxEffective), 1u);
  EXPECT_EQ(st.count(AtomicOutcome::kMaxIneffective), 1u);
  EXPECT_DOUBLE_EQ(st.min_ineffective_rate(), 0.5);
}

TEST(Atomics, AddReturnsOldValueAndAccumulates) {
  Device dev;
  u64 counter = 0;
  dev.launch("t", {2, 32}, [&](ThreadCtx& ctx) {
    ctx.atomic_add(counter, 1u);
  });
  EXPECT_EQ(counter, 64u);
}

TEST(Atomics, StatsResettable) {
  Device dev;
  u32 x = 0;
  dev.launch("t", {1, 1},
             [&](ThreadCtx& ctx) { ctx.atomic_min(x, 0u); });
  dev.atomic_stats().reset();
  EXPECT_EQ(dev.atomic_stats().total(), 0u);
}

TEST(Atomics, SixtyFourBitVariants) {
  Device dev;
  u64 v = 100;
  dev.launch("t", {1, 1}, [&](ThreadCtx& ctx) {
    EXPECT_TRUE(ctx.atomic_min(v, u64{50}));
    EXPECT_TRUE(ctx.atomic_max(v, u64{200}));
    EXPECT_EQ(ctx.atomic_cas(v, u64{200}, u64{1}), 200u);
  });
  EXPECT_EQ(v, 1u);
}

// --- cooperative launch ------------------------------------------------------------

TEST(Cooperative, ThreadsRunUntilDone) {
  Device dev;
  std::vector<int> steps(8, 0);
  const auto ks = dev.launch_cooperative("t", {1, 8}, [&](ThreadCtx& ctx) {
    // Thread i finishes after i+1 steps.
    return ++steps[ctx.global_id()] > static_cast<int>(ctx.global_id());
  });
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(steps[i], static_cast<int>(i) + 1);
  EXPECT_EQ(ks.cooperative_rounds, 8u);
}

TEST(Cooperative, RoundCallbackFiresEveryRound) {
  Device dev;
  u64 calls = 0;
  int remaining = 3;
  dev.launch_cooperative(
      "t", {1, 1}, [&](ThreadCtx&) { return --remaining == 0; },
      [&](u64 round) {
        ++calls;
        EXPECT_EQ(round, calls);
      });
  EXPECT_EQ(calls, 3u);
}

TEST(Cooperative, RunawayKernelIsCaught) {
  Device dev;
  EXPECT_THROW(dev.launch_cooperative(
                   "spin", {1, 1}, [](ThreadCtx&) { return false; },
                   NoRoundHook{}, /*max_rounds=*/100),
               CheckFailure);
}

TEST(Cooperative, ShuffledModeStillCompletes) {
  Device dev({}, 5, ScheduleMode::kShuffled);
  std::vector<int> steps(32, 0);
  dev.launch_cooperative("t", {1, 32}, [&](ThreadCtx& ctx) {
    return ++steps[ctx.global_id()] >= 3;
  });
  for (const int s : steps) EXPECT_EQ(s, 3);
}

// --- block-iterative launch ---------------------------------------------------------

TEST(BlockIterative, RunsUntilBlockFixpoint) {
  Device dev;
  // Each block propagates a token along its 8 threads; thread t updates when
  // its left neighbor holds a value bigger than its own.
  LaunchConfig cfg{2, 8};
  std::vector<u32> val(16, 0);
  val[0] = 5;
  val[8] = 7;
  const auto ks = dev.launch_block_iterative(
      "prop", cfg, [&](ThreadCtx& ctx, u64) {
        const u32 i = ctx.global_id();
        if (ctx.thread_idx() == 0) return false;
        if (val[i - 1] > val[i]) {
          val[i] = val[i - 1];
          return true;
        }
        return false;
      });
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(val[i], 5u);
  for (u32 i = 8; i < 16; ++i) EXPECT_EQ(val[i], 7u);
  ASSERT_EQ(ks.block_inner_iterations.size(), 2u);
  // Ascending sweep propagates in one pass; one more confirms fixpoint.
  EXPECT_EQ(ks.block_inner_iterations[0], 2u);
  EXPECT_EQ(ks.block_inner_iterations[1], 2u);
}

TEST(BlockIterative, SyncCostGrowsWithBlockSize) {
  CostModel cm;
  Device small_dev(cm), large_dev(cm);
  const auto kernel = [](ThreadCtx&, u64 inner) { return inner < 4; };
  const auto a = small_dev.launch_block_iterative("s", {1, 64}, kernel);
  const auto b = large_dev.launch_block_iterative("l", {1, 1024}, kernel);
  EXPECT_GT(b.cost.sync_cost, a.cost.sync_cost);
}

TEST(BlockIterative, RunawayInnerLoopIsCaught) {
  Device dev;
  EXPECT_THROW(dev.launch_block_iterative(
                   "spin", {1, 4}, [](ThreadCtx&, u64) { return true; },
                   /*max_inner=*/50),
               CheckFailure);
}

// --- degenerate launches ---------------------------------------------------------

TEST(Trace, AllIdleLaunchReportsUnitImbalance) {
  // A launch where no thread does any work (every body is a no-op) has
  // active_threads == 0. The defined semantics: such a launch is trivially
  // balanced — imbalance is exactly 1.0, never a division by zero — and it
  // contributes 0% active threads to load_balance().
  Device dev;
  profile::Session session(dev);
  dev.launch("noop", {2, 32}, [](ThreadCtx&) {});
  ASSERT_EQ(session.spans().size(), 1u);
  const profile::Span& e = session.spans()[0];
  EXPECT_EQ(e.kind, profile::SpanKind::kKernel);
  EXPECT_EQ(e.active_threads, 0u);
  EXPECT_EQ(e.idle_threads, 64u);
  EXPECT_EQ(e.imbalance, 1.0);
  // The aggregates render without NaNs or infinities.
  const std::string csv = profile::timeline_csv(session);
  EXPECT_NE(csv.find("noop,2,32"), std::string::npos);
  EXPECT_EQ(csv.find("nan"), std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);
  const Table lb = profile::load_balance(session);
  ASSERT_EQ(lb.rows(), 1u);
  EXPECT_EQ(lb.row(0)[2], "0.0");   // avg active %
  EXPECT_EQ(lb.row(0)[3], "1.00");  // avg imbalance
  EXPECT_EQ(lb.row(0)[4], "1.00");  // worst imbalance
  const std::string text = lb.to_text();
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Cost, AllIdleImbalanceIsExactlyOne) {
  KernelCost kc;
  kc.active_threads = 0;
  kc.thread_work = 0;
  kc.max_thread_work = 0;
  EXPECT_EQ(kc.imbalance(), 1.0);
}

TEST(BlockIterative, PerBlockIterationCountsIndependent) {
  Device dev;
  // Block 0 stops after its first sweep reports no update; block 1 updates
  // through sweep 4 and confirms on sweep 5.
  const auto ks = dev.launch_block_iterative(
      "t", {2, 4}, [&](ThreadCtx& ctx, u64 inner) {
        if (ctx.block_idx() == 0) return false;
        return inner < 5;
      });
  EXPECT_EQ(ks.block_inner_iterations[0], 1u);
  EXPECT_EQ(ks.block_inner_iterations[1], 5u);
}

}  // namespace
}  // namespace eclp::sim
