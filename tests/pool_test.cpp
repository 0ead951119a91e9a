// Work-stealing pool semantics (support/pool.hpp) and the determinism contract
// of block-independent dispatch: per-block shard merges in block-index
// order, worker-count-independent counters, exception propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "profile/counters.hpp"
#include "profile/session.hpp"
#include "sim/device.hpp"
#include "sim/pool.hpp"
#include "support/pool.hpp"
#include "support/worker.hpp"

namespace eclp::sim {
namespace {

TEST(Pool, EmptyRunExecutesNothing) {
  Pool pool(4);
  std::atomic<u64> calls{0};
  pool.run(0, [&](u64, u32) { calls++; });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(Pool, SingleTaskRunsOnce) {
  Pool pool(4);
  std::atomic<u64> calls{0};
  u64 seen_task = ~u64{0};
  pool.run(1, [&](u64 task, u32) {
    calls++;
    seen_task = task;
  });
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(seen_task, 0u);
}

TEST(Pool, ManyMoreTasksThanWorkersEachRunsExactlyOnce) {
  Pool pool(4);
  constexpr u64 kTasks = 10000;
  // Each task writes only its own slot, so plain ints suffice.
  std::vector<u32> runs(kTasks, 0);
  pool.run(kTasks, [&](u64 task, u32) { runs[task]++; });
  for (u64 t = 0; t < kTasks; ++t) {
    ASSERT_EQ(runs[t], 1u) << "task " << t;
  }
}

TEST(Pool, WorkerIdsAreInRange) {
  Pool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<u32> bad{0};
  pool.run(256, [&](u64, u32 worker) {
    if (worker >= 3) bad++;
  });
  EXPECT_EQ(bad.load(), 0u);
}

TEST(Pool, SizeOneRunsInlineOnCaller) {
  Pool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  u64 calls = 0;
  pool.run(64, [&](u64, u32 worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, current_worker_slot());
    calls++;
  });
  EXPECT_EQ(calls, 64u);
}

TEST(Pool, ExceptionFromSingleFailingTaskPropagates) {
  Pool pool(4);
  EXPECT_THROW(pool.run(64,
                        [&](u64 task, u32) {
                          if (task == 7) throw std::runtime_error("task 7");
                        }),
               std::runtime_error);
  // The pool must survive a failed run and accept the next one.
  std::atomic<u64> calls{0};
  pool.run(16, [&](u64, u32) { calls++; });
  EXPECT_EQ(calls.load(), 16u);
}

TEST(Pool, ExceptionCarriesLowestFailingTask) {
  Pool pool(2);
  // Every task throws its own index. A failure does not stop the run, so
  // every task executes and the rethrown exception is always task 0's —
  // exactly what a sequential sweep would have reported first.
  try {
    pool.run(100, [&](u64 task, u32) {
      throw std::runtime_error(std::to_string(task));
    });
    FAIL() << "run() should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(Pool, ReentrantRunDegradesToInline) {
  Pool pool(4);
  std::atomic<u64> inner_calls{0};
  pool.run(8, [&](u64, u32 worker) {
    // A task that itself calls run() (a simulated kernel launching from a
    // worker) must not deadlock; the nested call runs inline.
    pool.run(4, [&](u64, u32 inner_worker) {
      EXPECT_EQ(inner_worker, worker);
      inner_calls++;
    });
  });
  EXPECT_EQ(inner_calls.load(), 32u);
}

TEST(Pool, ConcurrentRunsFromOtherThreadsEachRunEveryTaskOnce) {
  // Several threads sharing one pool (graph builds on different serving
  // threads) must each see every one of their own tasks run exactly once;
  // a caller that finds the workers busy runs inline.
  Pool pool(4);
  constexpr u32 kCallers = 4;
  constexpr u64 kTasks = 64;
  std::vector<std::vector<std::atomic<u32>>> seen(kCallers);
  for (auto& s : seen) s = std::vector<std::atomic<u32>>(kTasks);
  std::vector<std::thread> callers;
  for (u32 c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (u32 round = 0; round < 50; ++round) {
        pool.run(kTasks, [&](u64 task, u32) { seen[c][task]++; });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (u32 c = 0; c < kCallers; ++c) {
    for (u64 t = 0; t < kTasks; ++t) {
      EXPECT_EQ(seen[c][t].load(), 50u) << "caller " << c << " task " << t;
    }
  }
}

TEST(PoolSampling, OverlappingSessionsOnASharedPoolClaimItOnce) {
  // Two served requests profile at once on devices that share one pool.
  // Exactly one session claims the pool's worker sampling; the other
  // records no worker samples. Neither resets nor reads the samples while
  // the other device has a pooled launch in flight (TSan checks that).
  Pool pool(4);
  std::barrier sync(2);
  std::vector<std::vector<Pool::WorkerSample>> samples(2);
  const auto launches = [](sim::Device& dev) {
    sim::LaunchConfig cfg{64, 32};
    cfg.block_independent = true;
    for (int i = 0; i < 20; ++i) {
      dev.launch("k", cfg, [](sim::ThreadCtx& ctx) { ctx.charge_alu(1); });
    }
  };
  std::vector<std::thread> requests;
  for (u32 r = 0; r < 2; ++r) {
    requests.emplace_back([&, r] {
      sim::Device dev;
      dev.set_pool(&pool);
      {
        profile::Session session(dev);
        sync.arrive_and_wait();  // both sessions are open
        launches(dev);
        sync.arrive_and_wait();
        launches(dev);  // overlaps the other session's finalize
        session.finalize();
        const auto s = session.worker_samples();
        samples[r].assign(s.begin(), s.end());
      }
      launches(dev);  // overlaps the other session's finalize
    });
  }
  for (auto& t : requests) t.join();
  EXPECT_NE(samples[0].empty(), samples[1].empty());
  EXPECT_EQ(samples[0].size() + samples[1].size(), 4u);
  // Finalizing released the claim, so the next session gets it.
  EXPECT_FALSE(pool.sampling());
  sim::Device dev;
  dev.set_pool(&pool);
  profile::Session next(dev);
  EXPECT_TRUE(pool.sampling());
  next.finalize();
  EXPECT_EQ(next.worker_samples().size(), 4u);
  EXPECT_FALSE(pool.sampling());
}

TEST(Pool, SimThreadsConfigRoundTrips) {
  const u32 before = sim_threads();
  set_sim_threads(3);
  EXPECT_EQ(sim_threads(), 3u);
  Pool* pool = shared_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 3u);
  set_sim_threads(1);
  EXPECT_EQ(sim_threads(), 1u);
  EXPECT_EQ(shared_pool(), nullptr);
  set_sim_threads(before);
}

TEST(Pool, WorkerCountFromEnvRejectsInvalidValuesWithoutWrapping) {
  constexpr const char* kVar = "ECLP_POOL_TEST_WORKERS";
  const auto from_env = [&](const char* value, u32 fallback) {
    if (value == nullptr) {
      unsetenv(kVar);
    } else {
      setenv(kVar, value, 1);
    }
    const u32 n = worker_count_from_env(kVar, fallback);
    unsetenv(kVar);
    return n;
  };
  EXPECT_EQ(from_env("3", 1), 3u);
  EXPECT_EQ(from_env("0", 1), clamp_worker_count(0));  // 0 = hardware
  EXPECT_EQ(from_env("100000", 1), clamp_worker_count(100000));
  // Unset and invalid values take the caller's fallback: 1 for the
  // simulator, hardware (0) for ingest.
  for (const u32 fallback : {1u, 0u}) {
    const u32 expected = clamp_worker_count(fallback);
    EXPECT_EQ(from_env(nullptr, fallback), expected);
    EXPECT_EQ(from_env("", fallback), expected);
    EXPECT_EQ(from_env("abc", fallback), expected);
    EXPECT_EQ(from_env("4x", fallback), expected);
    EXPECT_EQ(from_env("-1", fallback), expected);
    // Beyond u32: 4294967298 = 2^32 + 2 must not wrap to 2 workers.
    EXPECT_EQ(from_env("4294967298", fallback), expected);
    EXPECT_EQ(from_env("99999999999999999999", fallback), expected);
  }
}

// --- block-independent dispatch through Device -------------------------------

/// Run one block-independent launch whose blocks produce distinct atomic
/// outcome mixes, on a device driven by `workers` workers; return the
/// device's outcome tallies.
std::vector<u64> atomic_tallies_with_workers(u32 workers) {
  Pool pool(workers);
  Device dev;
  dev.set_pool(&pool);
  LaunchConfig cfg{8, 32};
  cfg.block_independent = true;
  std::vector<u32> cells(8, 0);
  dev.launch("mix", cfg, [&](ThreadCtx& ctx) {
    const u32 b = ctx.block_idx();
    // Within a block threads run sequentially, so these CAS/min/max
    // outcomes are deterministic per block — and must stay so when blocks
    // land on different workers.
    ctx.atomic_cas(cells[b], ctx.thread_idx(), ctx.thread_idx() + 1);
    ctx.atomic_max(cells[b], ctx.thread_idx() % (b + 1));
    ctx.atomic_add(cells[b], 1);
  });
  std::vector<u64> tallies;
  for (usize o = 0; o < static_cast<usize>(AtomicOutcome::kCount_); ++o) {
    tallies.push_back(dev.atomic_stats().count(static_cast<AtomicOutcome>(o)));
  }
  tallies.push_back(dev.total_cycles());
  return tallies;
}

TEST(BlockIndependentDispatch, ShardMergeIsWorkerCountIndependent) {
  const auto base = atomic_tallies_with_workers(1);
  EXPECT_EQ(atomic_tallies_with_workers(2), base);
  EXPECT_EQ(atomic_tallies_with_workers(4), base);
  EXPECT_EQ(atomic_tallies_with_workers(7), base);
}

TEST(BlockIndependentDispatch, ExceptionReportsLowestFailingBlock) {
  Pool pool(4);
  Device dev;
  dev.set_pool(&pool);
  LaunchConfig cfg{16, 4};
  cfg.block_independent = true;
  try {
    dev.launch("boom", cfg, [&](ThreadCtx& ctx) {
      // Every block's first thread fails; block 0 runs at the front of
      // worker 0's chunk, so the reported block is deterministic.
      if (ctx.thread_idx() == 0) {
        throw std::runtime_error("block " + std::to_string(ctx.block_idx()));
      }
    });
    FAIL() << "launch should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 0");
  }
  // The device must remain usable after a failed launch.
  const auto ks = dev.launch("ok", {2, 2}, [](ThreadCtx& ctx) {
    ctx.charge_alu(1);
  });
  EXPECT_EQ(ks.cost.active_threads, 4u);
}

/// Cycles the block-tally kernel charges thread `gid`: zero for every
/// fourth thread and for all of block 3, one heavy thread in block 1 that
/// outlasts its block's lane throughput, varied amounts elsewhere.
u64 tally_work(u32 gid, u32 tpb) {
  if (gid / tpb == 3 || gid % 4 == 0) return 0;
  if (gid == tpb + 5) return 5000;
  return (gid * 37) % 101 + 1;
}

/// A run-to-completion launch sums each thread's work into its block as the
/// thread finishes. Every KernelCost field must equal the sums worked out
/// by hand from the per-thread charges, for any schedule, block
/// independence and worker count.
TEST(BlockIndependentDispatch, BlockTallyMatchesHandSummedCost) {
  const CostModel cost;
  const LaunchConfig base{11, 24};
  const u32 tpb = base.threads_per_block;

  KernelCost want;
  u64 block_time_total = 0;
  for (u32 b = 0; b < base.blocks; ++b) {
    u64 work = 0, longest = 0;
    for (u32 t = 0; t < tpb; ++t) {
      const u64 w = tally_work(b * tpb + t, tpb);
      work += w;
      longest = std::max(longest, w);
      want.active_threads += w > 0 ? 1 : 0;
    }
    want.thread_work += work;
    want.max_thread_work = std::max(want.max_thread_work, longest);
    const u64 lanes_time = (work + cost.lanes_per_sm - 1) / cost.lanes_per_sm;
    const u64 block_time = cost.block_overhead + std::max(lanes_time, longest);
    block_time_total += block_time;
    want.max_block_time = std::max(want.max_block_time, block_time);
  }
  want.idle_threads = base.total_threads() - want.active_threads;
  want.block_time = block_time_total;
  want.modeled_cycles =
      cost.launch_overhead +
      std::max((block_time_total + cost.sm_count - 1) / cost.sm_count,
               want.max_block_time);
  // The heavy thread sets block 1's time, and block 3 charges nothing.
  ASSERT_EQ(want.max_thread_work, 5000u);
  ASSERT_EQ(want.max_block_time, cost.block_overhead + 5000);

  for (const ScheduleMode mode :
       {ScheduleMode::kDeterministic, ScheduleMode::kShuffled}) {
    for (const bool independent : {false, true}) {
      for (const u32 workers : {1u, 3u}) {
        SCOPED_TRACE(::testing::Message()
                     << "shuffled=" << (mode == ScheduleMode::kShuffled)
                     << " block_independent=" << independent
                     << " workers=" << workers);
        Pool pool(workers);
        Device dev(cost, 7, mode);
        dev.set_pool(&pool);
        LaunchConfig cfg = base;
        cfg.block_independent = independent;
        std::vector<u32> runs(cfg.total_threads(), 0);
        const KernelStats ks = dev.launch("tally", cfg, [&](ThreadCtx& ctx) {
          ++runs[ctx.global_id()];
          ctx.charge_alu(tally_work(ctx.global_id(), ctx.block_dim()));
        });
        EXPECT_EQ(runs, std::vector<u32>(cfg.total_threads(), 1));
        EXPECT_EQ(ks.cost.thread_work, want.thread_work);
        EXPECT_EQ(ks.cost.max_thread_work, want.max_thread_work);
        EXPECT_EQ(ks.cost.active_threads, want.active_threads);
        EXPECT_EQ(ks.cost.idle_threads, want.idle_threads);
        EXPECT_EQ(ks.cost.sync_cost, 0u);
        EXPECT_EQ(ks.cost.block_time, want.block_time);
        EXPECT_EQ(ks.cost.max_block_time, want.max_block_time);
        EXPECT_EQ(ks.cost.modeled_cycles, want.modeled_cycles);
        EXPECT_EQ(dev.total_cycles(), want.modeled_cycles);
      }
    }
  }
}

/// Worker-sharded profile counters must fold to the same totals for any
/// worker count (sums in worker-slot order are commutative over u64).
TEST(ShardedCounters, TotalsIndependentOfWorkerCount) {
  const auto run_counters = [](u32 workers, u64& global_total,
                               std::vector<u64>& per_block) {
    Pool pool(workers);
    Device dev;
    dev.set_pool(&pool);
    LaunchConfig cfg{16, 64};
    cfg.block_independent = true;
    profile::GlobalCounter events;
    profile::PerBlockCounter block_events(cfg.blocks);
    dev.launch("count", cfg, [&](ThreadCtx& ctx) {
      ctx.charge_alu(1);
      events.inc(1 + ctx.thread_idx() % 3);
      block_events.inc(ctx.block_idx());
    });
    global_total = events.value();
    per_block.assign(block_events.values().begin(),
                     block_events.values().end());
  };
  u64 base_total = 0;
  std::vector<u64> base_blocks;
  run_counters(1, base_total, base_blocks);
  for (const u32 workers : {2u, 4u, 7u}) {
    u64 total = 0;
    std::vector<u64> blocks;
    run_counters(workers, total, blocks);
    EXPECT_EQ(total, base_total) << workers << " workers";
    EXPECT_EQ(blocks, base_blocks) << workers << " workers";
  }
}

TEST(ShardedCounters, ResizeAndResetClearWorkerShards) {
  profile::PerBlockCounter c(4);
  set_current_worker_slot(2);
  c.inc(1, 5);
  set_current_worker_slot(0);
  EXPECT_EQ(c.at(1), 5u);  // consolidated on read
  c.resize(4);
  EXPECT_EQ(c.total(), 0u);
  set_current_worker_slot(3);
  c.inc(2, 7);
  set_current_worker_slot(0);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

/// resize() keeps worker-shard arenas alive (assign, not reconstruct): a
/// shard a worker populated before a resize must keep counting correctly
/// afterwards — re-zeroed, re-sized to the new bucket count (grow and
/// shrink), never stale and never lost. This is the launch-loop pattern:
/// one counter, resize() before every instrumented launch.
TEST(ShardedCounters, ShardsSurviveResizeWithoutLossOrLeak) {
  profile::PerThreadCounter c(8);
  set_current_worker_slot(4);
  for (usize b = 0; b < 8; ++b) c.inc(b, 10 + b);
  set_current_worker_slot(0);
  EXPECT_EQ(c.total(), 8 * 10 + 7 * 8 / 2);

  // Grow: old shard contents must not leak into the new window, and the
  // reused shard must cover the new, larger index range.
  c.resize(16);
  EXPECT_EQ(c.total(), 0u);
  set_current_worker_slot(4);
  c.inc(15, 3);  // index only valid if the shard was re-sized, not kept
  set_current_worker_slot(0);
  EXPECT_EQ(c.at(15), 3u);
  EXPECT_EQ(c.total(), 3u);

  // Shrink: same guarantees in the other direction, and a second worker's
  // shard (allocated before the shrink) participates too.
  set_current_worker_slot(6);
  c.inc(12, 100);
  set_current_worker_slot(0);
  c.resize(4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.total(), 0u);
  set_current_worker_slot(4);
  c.inc(1, 2);
  set_current_worker_slot(6);
  c.inc(1, 5);
  set_current_worker_slot(0);
  EXPECT_EQ(c.at(1), 7u);
  EXPECT_EQ(c.total(), 7u);
}

}  // namespace
}  // namespace eclp::sim
