#include "sim/device.hpp"

#include <algorithm>

namespace eclp::sim {

namespace {

u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

}  // namespace

Device::Device(CostModel cost, u64 seed, ScheduleMode mode)
    : cost_(cost),
      seed_(seed),
      mode_(mode),
      rng_(splitmix64(seed)),
      pool_(shared_pool()) {
  ECLP_CHECK(cost_.lanes_per_sm > 0);
  ECLP_CHECK(cost_.sm_count > 0);
}

KernelCost Device::finalize_thread_work(const LaunchConfig& cfg) {
  block_work_.assign(cfg.blocks, {});
  const u64* w = work_.data();
  for (BlockWork& block : block_work_) {
    for (u32 t = 0; t < cfg.threads_per_block; ++t) block.add_thread(*w++);
  }
  return finalize_cost(cfg);
}

KernelCost Device::finalize_cost(const LaunchConfig& cfg) {
  KernelCost kc;
  const bool keep_block_times = observing();
  block_cycles_.clear();
  if (keep_block_times) block_cycles_.reserve(cfg.blocks);
  u64 block_time_total = 0;
  u64 max_block_time = 0;
  for (const BlockWork& block : block_work_) {
    kc.thread_work += block.work;
    kc.max_thread_work = std::max(kc.max_thread_work, block.max_thread);
    kc.active_threads += block.active;
    kc.sync_cost += block.sync;
    // A block is bounded by its lane throughput AND by its longest single
    // thread — one thread's serial instruction stream cannot spread across
    // lanes, which is why per-thread load balance (paper §3.1.1) matters.
    const u64 block_time =
        cost_.block_overhead +
        std::max(ceil_div(block.work, cost_.lanes_per_sm), block.max_thread) +
        block.sync;
    block_time_total += block_time;
    max_block_time = std::max(max_block_time, block_time);
    if (keep_block_times) block_cycles_.push_back(block_time);
  }
  kc.idle_threads = cfg.total_threads() - kc.active_threads;
  kc.block_time = block_time_total;
  kc.max_block_time = max_block_time;
  // Fold the per-block LLC slices in block-index order — same deterministic
  // merge discipline as the atomic-outcome shards.
  if (cost_.cache.enabled) {
    for (u32 b = 0; b < cfg.blocks; ++b) {
      kc.llc_hits += block_caches_[b].hits();
      kc.llc_misses += block_caches_[b].misses();
    }
    llc_hits_ += kc.llc_hits;
    llc_misses_ += kc.llc_misses;
  }
  // Throughput bound vs. critical path (see KernelCost).
  kc.modeled_cycles =
      cost_.launch_overhead +
      std::max(ceil_div(block_time_total, cost_.sm_count), max_block_time);
  total_cycles_ += kc.modeled_cycles;
  ++launches_;
  return kc;
}

void Device::record_trace(const KernelStats& stats, u64 atomics_before) {
  if (!observing()) return;
  observer_->on_launch(stats, atomics_.total() - atomics_before,
                       monotonic_ns() - launch_wall_start_, block_cycles_);
}

void Device::host_op(u64 count) { total_cycles_ += cost_.host_op * count; }

}  // namespace eclp::sim
