#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

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

// --- block-jacobi launch -------------------------------------------------------------

TEST(BlockIterative, RunsUntilBlockFixpoint) {
  Device dev;
  // Each block propagates a token along its 8 threads; thread t buffers an
  // update when its left neighbor holds a value bigger than its own, and
  // the commit names thread t+1 (the next reader) dirty.
  LaunchConfig cfg{2, 8};
  std::vector<u32> val(16, 0);
  val[0] = 5;
  val[8] = 7;
  std::vector<std::vector<std::pair<u32, u32>>> pending(cfg.blocks);
  std::vector<u32> runs(cfg.blocks, 0);
  const auto ks = dev.launch_block_jacobi(
      "prop", cfg,
      [&](ThreadCtx& ctx, u64) {
        const u32 i = ctx.global_id();
        runs[ctx.block_idx()]++;
        if (ctx.thread_idx() > 0 && val[i - 1] > val[i]) {
          pending[ctx.block_idx()].push_back({i, val[i - 1]});
        }
      },
      [&](u32 b, u64, std::vector<u32>& dirty) {
        const bool any = !pending[b].empty();
        for (const auto& [i, v] : pending[b]) {
          val[i] = v;
          if (i % 8 + 1 < 8) dirty.push_back(i % 8 + 1);
        }
        pending[b].clear();
        return any;
      });
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(val[i], 5u);
  for (u32 i = 8; i < 16; ++i) EXPECT_EQ(val[i], 7u);
  ASSERT_EQ(ks.block_inner_iterations.size(), 2u);
  // Snapshot sweeps move the token one hop each: 7 hops, then one sweep
  // that confirms the fixpoint.
  EXPECT_EQ(ks.block_inner_iterations[0], 8u);
  EXPECT_EQ(ks.block_inner_iterations[1], 8u);
  // Sweep 1 runs all 8 threads, sweeps 2..7 only the one dirty thread, and
  // the confirming sweep none.
  EXPECT_EQ(runs[0], 14u);
  EXPECT_EQ(runs[1], 14u);
}

TEST(BlockIterative, SyncCostGrowsWithBlockSize) {
  CostModel cm;
  Device small_dev(cm), large_dev(cm);
  const auto step = [](ThreadCtx&, u64) {};
  const auto commit = [](u32, u64 inner, std::vector<u32>&) {
    return inner < 4;
  };
  const auto a = small_dev.launch_block_jacobi("s", {1, 64}, step, commit);
  const auto b = large_dev.launch_block_jacobi("l", {1, 1024}, step, commit);
  EXPECT_GT(b.cost.sync_cost, a.cost.sync_cost);
}

TEST(BlockIterative, RunawayInnerLoopIsCaught) {
  Device dev;
  EXPECT_THROW(dev.launch_block_jacobi(
                   "spin", {1, 4}, [](ThreadCtx&, u64) {},
                   [](u32, u64, std::vector<u32>&) { return true; },
                   AllThreads{}, /*max_inner=*/50),
               CheckFailure);
}

TEST(BlockIterative, PerBlockIterationCountsIndependent) {
  Device dev;
  // Block 0 stops after its first sweep commits nothing; block 1 commits
  // through sweep 4 and confirms on sweep 5.
  const auto ks = dev.launch_block_jacobi(
      "t", {2, 4}, [](ThreadCtx&, u64) {},
      [](u32 b, u64 inner, std::vector<u32>&) {
        return b != 0 && inner < 5;
      });
  EXPECT_EQ(ks.block_inner_iterations[0], 1u);
  EXPECT_EQ(ks.block_inner_iterations[1], 5u);
}

/// Outcome of the synthetic Jacobi kernel below.
struct JacobiRun {
  KernelStats stats;
  AtomicStats atomics;
  std::vector<u32> values;
  u64 thread_runs = 0;
};

/// Synthetic Jacobi kernel: every block is a chain of its threads' values.
/// Thread t reads values t-1, t and t+1 of its block, charges a cost that
/// depends on them, and pushes its value to a smaller neighbour as an
/// atomicMax intent. The commit resolves the intents (two can meet on one
/// slot, so some are ineffective) and names the threads to re-run: every
/// thread when `all_dirty`, otherwise only the readers of a raised slot.
/// A clean thread pushed nothing last sweep (its target would have been
/// raised, making it a reader) and its inputs are unchanged, so both
/// variants must produce identical numbers.
JacobiRun run_chain_kernel(bool all_dirty) {
  constexpr u32 kBlocks = 3, kThreads = 70;
  Device dev;
  std::vector<u32> val(kBlocks * kThreads);
  Rng rng(77);
  for (u32& v : val) v = static_cast<u32>(rng.below(1000));
  struct Intent {
    u32 slot;
    u32 value;
  };
  std::vector<std::vector<Intent>> pending(kBlocks);
  std::vector<u64> runs(kBlocks, 0);
  JacobiRun out;
  LaunchConfig cfg{kBlocks, kThreads};
  cfg.block_independent = true;
  out.stats = dev.launch_block_jacobi(
      "chain", cfg,
      [&](ThreadCtx& ctx, u64) {
        const u32 b = ctx.block_idx(), t = ctx.thread_idx();
        const u32 i = ctx.global_id();
        runs[b]++;
        ctx.charge_reads(3);
        ctx.charge_alu(val[i] % 7);
        for (const u32 nt : {t - 1, t + 1}) {
          if (nt >= kThreads) continue;  // t - 1 wraps for t == 0
          const u32 j = b * kThreads + nt;
          if (val[i] > val[j]) {
            ctx.charge_atomics(1);
            pending[b].push_back({j, val[i]});
          }
        }
      },
      [&](u32 b, u64, std::vector<u32>& dirty) {
        std::vector<u8> flag(kThreads, 0);
        bool any = false;
        for (const Intent& in : pending[b]) {
          if (in.value > val[in.slot]) {
            val[in.slot] = in.value;
            any = true;
            dev.record_block_atomic(b, AtomicOutcome::kMaxEffective);
            const u32 t = in.slot - b * kThreads;
            for (const u32 r : {t - 1, t, t + 1}) {
              if (r < kThreads) flag[r] = 1;
            }
          } else {
            dev.record_block_atomic(b, AtomicOutcome::kMaxIneffective);
          }
        }
        pending[b].clear();
        for (u32 t = 0; t < kThreads; ++t) {
          if (all_dirty || flag[t]) dirty.push_back(t);
        }
        return any;
      });
  out.atomics = dev.atomic_stats();
  out.values = std::move(val);
  for (const u64 r : runs) out.thread_runs += r;
  return out;
}

TEST(BlockJacobi, MinimalDirtySetMatchesRerunningEveryThread) {
  const JacobiRun all = run_chain_kernel(true);
  const JacobiRun minimal = run_chain_kernel(false);
  // The replay must actually have skipped work for this to mean anything.
  EXPECT_LT(minimal.thread_runs, all.thread_runs);
  EXPECT_GT(all.atomics.count(AtomicOutcome::kMaxIneffective), 0u);
  EXPECT_EQ(minimal.values, all.values);
  EXPECT_EQ(minimal.stats.block_inner_iterations,
            all.stats.block_inner_iterations);
  const KernelCost& a = all.stats.cost;
  const KernelCost& m = minimal.stats.cost;
  EXPECT_EQ(m.modeled_cycles, a.modeled_cycles);
  EXPECT_EQ(m.thread_work, a.thread_work);
  EXPECT_EQ(m.max_thread_work, a.max_thread_work);
  EXPECT_EQ(m.active_threads, a.active_threads);
  EXPECT_EQ(m.idle_threads, a.idle_threads);
  EXPECT_EQ(m.block_time, a.block_time);
  EXPECT_EQ(m.max_block_time, a.max_block_time);
  EXPECT_EQ(m.sync_cost, a.sync_cost);
  for (usize o = 0; o < static_cast<usize>(AtomicOutcome::kCount_); ++o) {
    const auto outcome = static_cast<AtomicOutcome>(o);
    EXPECT_EQ(minimal.atomics.count(outcome), all.atomics.count(outcome)) << o;
  }
}

/// Two block-jacobi launches of one geometry, with a plain launch between
/// them. Thread t charges t % 5 cycles per sweep (so some threads idle),
/// every block runs three sweeps, and each commit names every fourth
/// thread. The second launch's first sweep runs the threads `first` names.
template <typename First>
KernelStats relaunch(Device& dev, First&& first) {
  const LaunchConfig cfg{3, 70};
  const auto step = [](ThreadCtx& ctx, u64) {
    ctx.charge_alu(ctx.global_id() % 5);
  };
  const auto commit = [](u32, u64 inner, std::vector<u32>& dirty) {
    for (u32 t = 0; t < 70; t += 4) dirty.push_back(t);
    return inner < 3;
  };
  dev.launch_block_jacobi("k", cfg, step, commit);
  dev.launch("between", {2, 16}, [](ThreadCtx& ctx) { ctx.charge_alu(7); });
  return dev.launch_block_jacobi("k", cfg, step, commit, first);
}

TEST(BlockJacobi, FirstSweepSubsetReplaysTheRestAcrossLaunches) {
  Device all_dev, subset_dev;
  const KernelStats all = relaunch(all_dev, AllThreads{});
  const KernelStats subset =
      relaunch(subset_dev, [](u32, std::vector<u32>& dirty) {
        for (u32 t = 0; t < 70; t += 3) dirty.push_back(t);
        return false;
      });
  // Per block: 70 threads (or the 24 named) then 18 dirty ones twice.
  EXPECT_EQ(all.executed_thread_sweeps, 3u * (70 + 2 * 18));
  EXPECT_EQ(subset.executed_thread_sweeps, 3u * (24 + 2 * 18));
  EXPECT_EQ(subset.block_inner_iterations, all.block_inner_iterations);
  const KernelCost& a = all.cost;
  const KernelCost& s = subset.cost;
  EXPECT_EQ(s.modeled_cycles, a.modeled_cycles);
  EXPECT_EQ(s.thread_work, a.thread_work);
  EXPECT_EQ(s.max_thread_work, a.max_thread_work);
  EXPECT_EQ(s.active_threads, a.active_threads);
  EXPECT_EQ(s.idle_threads, a.idle_threads);
  EXPECT_EQ(s.block_time, a.block_time);
  EXPECT_EQ(s.max_block_time, a.max_block_time);
  EXPECT_EQ(s.sync_cost, a.sync_cost);
  EXPECT_EQ(subset_dev.total_cycles(), all_dev.total_cycles());
}

TEST(BlockJacobi, FirstSweepSubsetNeedsTheSameGeometry) {
  const auto step = [](ThreadCtx& ctx, u64) { ctx.charge_alu(1); };
  const auto commit = [](u32, u64, std::vector<u32>&) { return false; };
  const auto first = [](u32, std::vector<u32>& dirty) {
    dirty.push_back(0);
    return false;
  };
  Device dev;
  // Nothing to replay yet.
  EXPECT_THROW(dev.launch_block_jacobi("k", {2, 8}, step, commit, first),
               CheckFailure);
  dev.launch_block_jacobi("k", {2, 8}, step, commit);
  EXPECT_NO_THROW(dev.launch_block_jacobi("k", {2, 8}, step, commit, first));
  EXPECT_THROW(dev.launch_block_jacobi("k", {3, 8}, step, commit, first),
               CheckFailure);
  dev.launch_block_jacobi("k", {2, 8}, step, commit);
  EXPECT_THROW(dev.launch_block_jacobi("k", {2, 16}, step, commit, first),
               CheckFailure);
  // A launch that threw leaves nothing to carry.
  EXPECT_THROW(dev.launch_block_jacobi("k", {2, 8}, step, commit, first),
               CheckFailure);
}

TEST(BlockJacobi, OneSweepChargeMustFitTheReplayTable) {
  // The replay table keeps a thread's last sweep charge in 32 bits.
  const auto commit = [](u32, u64 inner, std::vector<u32>& dirty) {
    dirty.push_back(1);
    return inner < 3;
  };
  const auto charge = [](u64 cycles) {
    return [cycles](ThreadCtx& ctx, u64) { ctx.charge_alu(cycles); };
  };
  Device dev;
  const u64 top = ~u32{0};
  const KernelStats fits =
      dev.launch_block_jacobi("fits", {1, 2}, charge(top), commit);
  // Thread 0 replays its charge in sweeps 2 and 3; nothing wraps.
  EXPECT_EQ(fits.cost.thread_work, 6 * top);
  EXPECT_THROW(
      dev.launch_block_jacobi("over", {1, 2}, charge(top + 1), commit),
      CheckFailure);
}

/// Launch a one-block Jacobi kernel whose first commit names `dirty`.
void launch_with_dirty_list(std::vector<u32> names) {
  Device dev;
  dev.launch_block_jacobi(
      "bad", {1, 8}, [](ThreadCtx& ctx, u64) { ctx.charge_alu(1); },
      [&](u32, u64 inner, std::vector<u32>& dirty) {
        dirty = names;
        return inner == 1;
      });
}

TEST(BlockJacobi, MalformedDirtyListsFailInHardenedBuilds) {
  if (!ECLP_HARDENED) GTEST_SKIP() << "dirty lists are checked when hardened";
  EXPECT_NO_THROW(launch_with_dirty_list({0, 3, 7}));
  EXPECT_THROW(launch_with_dirty_list({3, 1}), CheckFailure);  // unsorted
  EXPECT_THROW(launch_with_dirty_list({2, 2}), CheckFailure);  // repeated
  EXPECT_THROW(launch_with_dirty_list({1, 8}), CheckFailure);  // t >= 8
}

TEST(BlockJacobi, StepWithInstrumentedAtomicFailsInHardenedBuilds) {
  if (!ECLP_HARDENED) GTEST_SKIP() << "step effects are checked when hardened";
  Device dev;
  u32 x = 0;
  EXPECT_THROW(dev.launch_block_jacobi(
                   "atomic", {1, 4},
                   [&](ThreadCtx& ctx, u64) { ctx.atomic_max(x, 1u); },
                   [](u32, u64, std::vector<u32>&) { return false; }),
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

}  // namespace
}  // namespace eclp::sim
