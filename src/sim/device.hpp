// CUDA-like execution model, simulated.
//
// This is the substitution for the paper's RTX 4090 (see DESIGN.md §2). It
// reproduces the parts of the CUDA execution model that the five ECL
// algorithms and their counters depend on:
//
//  * a grid of `blocks` x `threads_per_block` threads with global ids,
//  * instrumented atomics with outcome classification (atomics.hpp),
//  * three launch disciplines:
//      - launch():             every thread's body runs once to completion
//                              (the common ECL kernel shape);
//      - launch_cooperative(): threads repeatedly take *steps* until each
//                              reports done; the scheduler interleaves steps
//                              round-robin, optionally in a seeded shuffled
//                              order. This models the asynchronous,
//                              timing-dependent execution of ECL-MIS whose
//                              run-to-run variation the paper's Table 3
//                              studies;
//      - launch_block_jacobi(): each block repeats a thread-step sweep,
//                              a block-wide sync and a commit of the
//                              sweep's buffered writes until the commit
//                              changes nothing — the __syncthreads do-while
//                              structure of ECL-SCC's propagation kernel
//                              (paper Figure 1). Only the threads the
//                              kernel names as dirty run, across launches
//                              too; the rest replay their last sweep's
//                              charge;
//  * a cycle cost model charged as threads execute (cost_model.hpp).
//
// Dispatch: the launch entry points are templates on the kernel body type,
// so the body is invoked directly — inlinable, no heap allocation, no
// indirect call per simulated thread. The only type erasure left is the
// one the host thread pool genuinely requires: a block-independent launch
// hands the pool one std::function per *launch* (called once per block),
// never one per thread or per step. See docs/SIMULATOR.md ("Dispatch &
// cost-charging internals").
//
// Cost charging is batched: a ThreadCtx accumulates its cycle tally in a
// local register and hands it over once per body/step invocation, instead
// of touching shared state on every memory op. A thread that runs once
// adds its tally straight into its block's sums; only launch_cooperative,
// whose threads take many steps, keeps a per-thread work table. The sums
// are identical to per-op charging (addition is associative; see DESIGN.md
// §2), so every modeled number is unchanged.
//
// Determinism: with ScheduleMode::kDeterministic every run is bit-identical.
// With kShuffled, step order is a pure function of the device seed, so
// "nondeterminism" is reproducible too — rerunning with the same seed gives
// the same interleaving (the paper's Table 3 corresponds to three seeds).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/atomics.hpp"
#include "sim/cache.hpp"
#include "sim/cost_model.hpp"
#include "sim/pool.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"
#include "support/types.hpp"

namespace eclp::sim {

struct LaunchConfig {
  u32 blocks = 1;
  u32 threads_per_block = 256;
  /// Opt-in declaration that the kernel follows the *launch-snapshot
  /// discipline* (DESIGN.md §2): no thread reads state written by another
  /// block during this launch, and no two blocks write the same location.
  /// Such launches execute their blocks independently — across the host
  /// thread pool when one is attached — with per-block atomic-outcome
  /// shards merged in block-index order and, under ScheduleMode::kShuffled,
  /// a per-block PRNG stream derived from the device seed and launch index
  /// (instead of a draw from the device-wide stream), so every counter and
  /// modeled cycle is bit-identical for any worker count.
  bool block_independent = false;
  u32 total_threads() const { return blocks * threads_per_block; }
};

/// Per-launch result: identification plus modeled cost and, for
/// block-iterative kernels, per-block inner iteration counts.
struct KernelStats {
  std::string name;
  LaunchConfig config;
  KernelCost cost;
  u64 cooperative_rounds = 0;             ///< launch_cooperative only
  std::vector<u64> block_inner_iterations;  ///< launch_block_jacobi only
  /// Thread sweeps that ran, replayed ones excluded (launch_block_jacobi
  /// only). Host-side bookkeeping: no modeled number depends on it.
  u64 executed_thread_sweeps = 0;
};

enum class ScheduleMode : u8 {
  kDeterministic,  ///< threads step in id order
  kShuffled,       ///< step order reshuffled every round from the device seed
};

/// Default (no-op) round hook for launch_cooperative.
struct NoRoundHook {
  void operator()(u64 /*round*/) const {}
};

/// Default first-sweep functor for launch_block_jacobi: every thread runs.
struct AllThreads {
  bool operator()(u32 /*block*/, std::vector<u32>& /*dirty*/) const {
    return true;
  }
};

class Device;

/// Receives one callback per completed kernel launch, on the host thread,
/// after all blocks have joined. This is how profile::Session turns
/// launches into kernel spans without the Device depending on the profiling
/// library. Besides the launch's KernelStats it gets what the stats lack:
/// the atomic ops the launch issued, its simulator wall-clock in ns, and the
/// modeled time of each block (a view of the device's buffer, valid only
/// during the call). Wall clock and block times are collected only while an
/// observer is attached, so detached runs pay nothing.
class LaunchObserver {
 public:
  virtual ~LaunchObserver() = default;
  virtual void on_launch(const KernelStats& stats, u64 atomics_delta,
                         u64 wall_ns, std::span<const u64> block_cycles) = 0;
};

/// Device memory, the cudaMalloc analogue: every allocation starts on a
/// kDevicePage boundary. Every array a kernel touches through
/// ThreadCtx::load/store/atomic_* is a DeviceVector, so the modeled LLC
/// groups its lines by element index alone (see sim/cache.hpp).
///
/// An array sits at the first page boundary inside one plain block a page
/// longer than it, with the block's address stored just below the array.
/// An aligned operator new would do the same, but glibc returns the slack
/// on both sides to the heap as small free chunks that fragment it: served
/// workloads peaked 10-12% higher in RSS that way.
template <typename T>
struct DeviceAllocator {
  using value_type = T;
  DeviceAllocator() = default;
  template <typename U>
  DeviceAllocator(const DeviceAllocator<U>& /*other*/) {}
  T* allocate(usize n) {
    char* const block =
        static_cast<char*>(::operator new(n * sizeof(T) + kDevicePage));
    // At least 16 bytes above `block` (operator new aligns to 16), which
    // leaves room for the block's address.
    char* const array =
        block + (kDevicePage -
                 reinterpret_cast<std::uintptr_t>(block) % kDevicePage);
    std::memcpy(array - sizeof block, &block, sizeof block);
    return reinterpret_cast<T*>(array);
  }
  void deallocate(T* p, usize /*n*/) {
    char* block;
    std::memcpy(&block, reinterpret_cast<char*>(p) - sizeof block,
                sizeof block);
    ::operator delete(block);
  }
  /// Keeps n * sizeof(T) + kDevicePage from wrapping.
  usize max_size() const {
    return (std::numeric_limits<usize>::max() - kDevicePage) / sizeof(T);
  }
  template <typename U>
  bool operator==(const DeviceAllocator<U>& /*other*/) const {
    return true;
  }
};
template <typename T>
using DeviceVector = std::vector<T, DeviceAllocator<T>>;

/// Handle passed to kernel bodies; identifies the thread and provides
/// instrumented operations that charge the cost model.
///
/// Charges accumulate in `pending_` (a local/register tally) that the
/// launch loop collects once per body/step invocation — never per
/// operation.
class ThreadCtx {
 public:
  u32 block_idx() const { return block_; }
  u32 thread_idx() const { return thread_; }
  u32 global_id() const { return global_; }
  u32 block_dim() const { return block_dim_; }
  u32 grid_dim() const { return grid_dim_; }
  /// Total threads in the grid (for grid-stride loops).
  u32 grid_size() const { return block_dim_ * grid_dim_; }

  // --- instrumented memory operations -------------------------------------
  /// Global-memory load of `loc` (charges cost, returns the value). This is
  /// a *classified* access: when the modeled LLC is enabled, the address is
  /// mapped to a cache line and charged llc_hit/llc_miss instead of the
  /// flat scattered cost.
  template <typename T>
  T load(const T& loc) {
    if (cache_ != nullptr) {
      classify(reinterpret_cast<std::uintptr_t>(&loc));
    } else {
      charge_reads(1);
    }
    return loc;
  }
  /// Global-memory store (charges cost). Classified like load().
  template <typename T>
  void store(T& loc, T value) {
    if (cache_ != nullptr) {
      classify(reinterpret_cast<std::uintptr_t>(&loc));
    } else {
      charge_writes(1);
    }
    loc = value;
  }
  /// Charge `n` ALU steps (loop control, comparisons, hashing...).
  void charge_alu(u64 n = 1) { pending_ += n * cost_->alu; }
  /// Charge `n` plain global reads without going through load() — for bulk
  /// scans where the value flow is clearer with direct indexing.
  void charge_reads(u64 n) { pending_ += n * cost_->global_read; }
  void charge_writes(u64 n) { pending_ += n * cost_->global_write; }
  /// Coalesced (streaming) accesses: consecutive threads touch consecutive
  /// addresses — row offsets, a thread's own output slot. Much cheaper than
  /// the scattered accesses of adjacency chasing.
  void charge_coalesced_reads(u64 n) { pending_ += n * cost_->coalesced_read; }
  void charge_coalesced_writes(u64 n) {
    pending_ += n * cost_->coalesced_write;
  }
  /// Charge the cost of `n` atomic operations whose effect is applied
  /// elsewhere (the buffered-intent pattern of launch_block_jacobi).
  void charge_atomics(u64 n) { pending_ += n * cost_->atomic; }

  // --- instrumented atomics ------------------------------------------------
  /// atomicCAS: returns the old value; outcome recorded.
  u32 atomic_cas(u32& loc, u32 expected, u32 desired) {
    return atomic_cas_impl(loc, expected, desired);
  }
  u64 atomic_cas(u64& loc, u64 expected, u64 desired) {
    return atomic_cas_impl(loc, expected, desired);
  }
  /// atomicMin/Max: returns true when the operation changed the target.
  bool atomic_min(u32& loc, u32 value) { return atomic_min_impl(loc, value); }
  bool atomic_min(u64& loc, u64 value) { return atomic_min_impl(loc, value); }
  bool atomic_max(u32& loc, u32 value) { return atomic_max_impl(loc, value); }
  bool atomic_max(u64& loc, u64 value) { return atomic_max_impl(loc, value); }
  /// atomicAdd: returns the previous value.
  u32 atomic_add(u32& loc, u32 value) { return atomic_add_impl(loc, value); }
  u64 atomic_add(u64& loc, u64 value) { return atomic_add_impl(loc, value); }
  /// atomicExch on a byte (ECL-MIS status updates are single-byte stores).
  u8 atomic_exch(u8& loc, u8 value) {
    charge_atomic_access(loc);
    stats_->record(AtomicOutcome::kAdd);
    const u8 old = loc;
    loc = value;
    return old;
  }

 private:
  friend class Device;

  /// Consult this block's LLC slice for a classified access and charge
  /// hit or miss.
  void classify(std::uintptr_t addr) {
    pending_ += cache_->access(addr) ? cost_->llc_hit : cost_->llc_miss;
  }
  /// Atomics always charge `atomic`; with the LLC enabled they *also*
  /// touch the line (GPU atomics resolve at the L2, so the RMW pulls the
  /// line regardless) and charge hit/miss on top.
  template <typename T>
  void charge_atomic_access(const T& loc) {
    pending_ += cost_->atomic;
    if (cache_ != nullptr) classify(reinterpret_cast<std::uintptr_t>(&loc));
  }

  template <typename T>
  T atomic_cas_impl(T& loc, T expected, T desired) {
    charge_atomic_access(loc);
    const T old = loc;
    if (old == expected) {
      loc = desired;
      stats_->record(AtomicOutcome::kCasSuccess);
    } else {
      stats_->record(AtomicOutcome::kCasFailure);
    }
    return old;
  }
  template <typename T>
  bool atomic_min_impl(T& loc, T value) {
    charge_atomic_access(loc);
    if (value < loc) {
      loc = value;
      stats_->record(AtomicOutcome::kMinEffective);
      return true;
    }
    stats_->record(AtomicOutcome::kMinIneffective);
    return false;
  }
  template <typename T>
  bool atomic_max_impl(T& loc, T value) {
    charge_atomic_access(loc);
    if (value > loc) {
      loc = value;
      stats_->record(AtomicOutcome::kMaxEffective);
      return true;
    }
    stats_->record(AtomicOutcome::kMaxIneffective);
    return false;
  }
  template <typename T>
  T atomic_add_impl(T& loc, T value) {
    charge_atomic_access(loc);
    stats_->record(AtomicOutcome::kAdd);
    const T old = loc;
    loc = old + value;
    return old;
  }

  const CostModel* cost_ = nullptr;
  /// Where atomic outcomes are tallied: the device-wide AtomicStats for
  /// sequential launches, this block's private shard for block-independent
  /// ones (merged in block-index order at launch end).
  AtomicStats* stats_ = nullptr;
  /// This block's modeled-LLC slice, or nullptr when the cache is disabled
  /// (the default): classified accesses then keep their flat costs.
  CacheSim* cache_ = nullptr;
  u64 pending_ = 0;  ///< cycles charged since the last flush
  u32 block_ = 0;
  u32 thread_ = 0;
  u32 global_ = 0;
  u32 block_dim_ = 0;
  u32 grid_dim_ = 0;
};

class Device {
 public:
  explicit Device(CostModel cost = {}, u64 seed = 0,
                  ScheduleMode mode = ScheduleMode::kDeterministic);

  // --- launch disciplines --------------------------------------------------
  // All launch entry points are templates on the callable type: the body is
  // invoked directly (and inlined where the compiler sees fit), with no
  // std::function construction and no per-thread indirect call.

  /// Run `body(ctx)` once for every thread of the grid.
  template <typename Body>
  KernelStats launch(const std::string& name, LaunchConfig cfg, Body&& body) {
    static_assert(std::is_invocable_v<Body&, ThreadCtx&>,
                  "kernel body must be callable as body(ThreadCtx&)");
    ECLP_CHECK(cfg.blocks > 0 && cfg.threads_per_block > 0);
    begin_observation();
    const u64 atomics_before = atomics_.total();
    const u64 launch_index = launches_;
    const u32 tpb = cfg.threads_per_block;
    block_work_.assign(cfg.blocks, {});
    prepare_caches(cfg.blocks);

    if (cfg.block_independent) {
      // Block-parallel path: each block runs to completion independently.
      // Thread order within a block is id order, or a per-block shuffled
      // stream — never a draw from the device-wide rng_, so the execution
      // is a pure function of (seed, launch index, block) and bit-identical
      // for any worker count.
      run_blocks(cfg, [&](u32 b, AtomicStats& shard) {
        ThreadCtx ctx = make_ctx(cfg, b, 0, &shard);
        BlockWork block;
        if (mode_ == ScheduleMode::kDeterministic) {
          for (u32 t = 0; t < tpb; ++t) run_in_block(ctx, t, block, body);
        } else {
          Rng block_rng(block_stream_seed(launch_index, b));
          for (const u32 t : block_rng.permutation(tpb)) {
            run_in_block(ctx, t, block, body);
          }
        }
        block_work_[b] = block;
      });
    } else if (mode_ == ScheduleMode::kDeterministic) {
      for (u32 b = 0; b < cfg.blocks; ++b) {
        ThreadCtx ctx = make_ctx(cfg, b, 0);
        BlockWork block;
        for (u32 t = 0; t < tpb; ++t) run_in_block(ctx, t, block, body);
        block_work_[b] = block;
      }
    } else {
      // Shuffled run-to-completion: a seeded permutation of global ids, so
      // consecutive threads belong to different blocks.
      const auto order = rng_.permutation(cfg.total_threads());
      for (const u32 gid : order) {
        const u32 b = gid / tpb;
        ThreadCtx ctx = make_ctx(cfg, b, gid % tpb);
        body(ctx);
        block_work_[b].add_thread(ctx.pending_);
      }
    }

    KernelStats ks;
    ks.name = name;
    ks.config = cfg;
    ks.cost = finalize_cost(cfg);
    record_trace(ks, atomics_before);
    return ks;
  }

  /// Asynchronous kernel: `step(ctx)` is one outer-loop iteration of a
  /// thread; it returns true when the thread has finished. The scheduler
  /// advances every unfinished thread once per round until all finish.
  /// `on_round_end`, if given, runs after every round — kernels use it to
  /// publish a round snapshot when they model the bounded staleness of
  /// massively parallel execution (see algos/mis). `max_rounds` guards
  /// against non-terminating kernels under test.
  template <typename Step, typename OnRoundEnd = NoRoundHook>
  KernelStats launch_cooperative(const std::string& name, LaunchConfig cfg,
                                 Step&& step,
                                 OnRoundEnd&& on_round_end = OnRoundEnd{},
                                 u64 max_rounds = 1u << 22) {
    static_assert(std::is_invocable_r_v<bool, Step&, ThreadCtx&>,
                  "cooperative step must be callable as bool step(ThreadCtx&)");
    static_assert(std::is_invocable_v<OnRoundEnd&, u64>,
                  "round hook must be callable as on_round_end(u64 round)");
    ECLP_CHECK(cfg.blocks > 0 && cfg.threads_per_block > 0);
    begin_observation();
    const u64 atomics_before = atomics_.total();
    work_.assign(cfg.total_threads(), 0);
    prepare_caches(cfg.blocks);

    std::vector<u32> alive(cfg.total_threads());
    for (u32 i = 0; i < cfg.total_threads(); ++i) alive[i] = i;

    u64 rounds = 0;
    while (!alive.empty()) {
      ECLP_CHECK_MSG(rounds < max_rounds,
                     "cooperative kernel '" << name << "' exceeded "
                                            << max_rounds << " rounds");
      ++rounds;
      if (mode_ == ScheduleMode::kShuffled) rng_.shuffle(alive);
      // Survivors compact in place (reads stay ahead of writes), keeping
      // the same order the old copy-into-next loop produced.
      usize out = 0;
      for (usize i = 0; i < alive.size(); ++i) {
        const u32 gid = alive[i];
        ThreadCtx ctx = make_ctx(cfg, gid / cfg.threads_per_block,
                                 gid % cfg.threads_per_block);
        const bool done = step(ctx);
        flush_cost(ctx);
        if (!done) alive[out++] = gid;
      }
      alive.resize(out);
      on_round_end(rounds);
    }

    KernelStats ks;
    ks.name = name;
    ks.config = cfg;
    ks.cooperative_rounds = rounds;
    ks.cost = finalize_thread_work(cfg);
    record_trace(ks, atomics_before);
    return ks;
  }

  /// Block-synchronous do-while kernel with *sweep-snapshot* visibility
  /// (ECL-SCC's propagation, paper Figure 1): each block repeats { a sweep
  /// of `step(ctx, inner_iter)` over its threads; block-wide sync;
  /// `commit(block, inner_iter, dirty)` } while commit returns true. The
  /// step only reads committed state and buffers its writes; commit applies
  /// them and returns whether anything changed. This models warp-parallel
  /// execution, where a value chain advances about one hop per sweep
  /// regardless of thread ids — a serialized sweep would let chains aligned
  /// with the serialization order collapse in one sweep and chains against
  /// it crawl, an artifact of the simulator, not the machine.
  ///
  /// Dirty-thread contract. Only the threads the kernel names run; every
  /// other thread is charged what its last executed sweep charged, as if it
  /// had run again, from a per-thread replay table. Names are block-local
  /// thread indices in ascending order without repeats.
  ///  * First sweep: `first(block, dirty)` (called with `dirty` empty)
  ///    returns true when every thread runs — the default, and the only
  ///    choice when the previous block-jacobi launch had another geometry
  ///    — or false after naming the threads that run. The others replay
  ///    the charge of their last sweep in an earlier launch: the table
  ///    carries over between consecutive block-jacobi launches of the same
  ///    (blocks, threads_per_block), whatever launches run in between.
  ///  * Later sweeps: commit names in `dirty` (cleared before each call)
  ///    the threads whose inputs its writes changed.
  /// The kernel guarantees that this replay is exact: a skipped thread's
  /// sweep would charge the same cycles and buffer nothing the kernel has
  /// not already accounted for. Its only device-visible effect is its
  /// charge, so a step issues no instrumented atomics and no classified
  /// accesses (it charges them); hardened builds check both, and the dirty
  /// lists. `first` runs inside the block, so in a block-independent
  /// launch it may touch only that block's state.
  template <typename Step, typename Commit, typename First = AllThreads>
  KernelStats launch_block_jacobi(const std::string& name, LaunchConfig cfg,
                                  Step&& step, Commit&& commit,
                                  First&& first = First{},
                                  u64 max_inner = 1u << 22) {
    static_assert(
        std::is_invocable_v<Step&, ThreadCtx&, u64>,
        "block-jacobi step must be callable as step(ThreadCtx&, u64)");
    static_assert(std::is_invocable_r_v<bool, Commit&, u32, u64,
                                        std::vector<u32>&>,
                  "block-jacobi commit must be callable as "
                  "bool commit(u32 block, u64, std::vector<u32>& dirty)");
    static_assert(std::is_invocable_r_v<bool, First&, u32, std::vector<u32>&>,
                  "block-jacobi first must be callable as "
                  "bool first(u32 block, std::vector<u32>& dirty)");
    ECLP_CHECK(cfg.blocks > 0 && cfg.threads_per_block > 0);
    ECLP_CHECK(max_inner <= ~u32{0});  // sweep indices fit Replay::last_sweep
    begin_observation();
    const u64 atomics_before = atomics_.total();
    // The replay table carries over only from a completed launch of the
    // same geometry; a launch that throws leaves nothing to carry.
    const bool carried = replay_cfg_.blocks == cfg.blocks &&
                         replay_cfg_.threads_per_block == cfg.threads_per_block;
    replay_cfg_ = {0, 0};
    if (!carried) replay_.assign(cfg.total_threads(), {});
    block_work_.assign(cfg.blocks, {});
    prepare_caches(cfg.blocks);

    std::vector<u64> block_iters(cfg.blocks, 0);
    const auto run_block = [&](u32 b, AtomicStats* shard) {
      const u32 tpb = cfg.threads_per_block;
      // One context per block, re-pointed at each thread it runs.
      ThreadCtx ctx = make_ctx(cfg, b, 0, shard);
      Replay* const replay = &replay_[static_cast<usize>(b) * tpb];
      BlockWork block;
      // A thread's work lags by the sweeps replayed since it last ran; each
      // run (and the block's end) charges them at once.
      const auto run_thread_sweep = [&](u32 t, u64 inner) {
        point_ctx(ctx, t);
        step(ctx, inner);
        ECLP_CHECK_MSG(ctx.pending_ <= ~u32{0},
                       "block-jacobi kernel '"
                           << name << "' block " << b << " thread " << t
                           << " charged " << ctx.pending_
                           << " cycles in one sweep; the replay table holds "
                              "at most 2^32 - 1");
        Replay& r = replay[t];
        r.work += r.sweep_work * (inner - 1 - r.last_sweep) + ctx.pending_;
        r.sweep_work = static_cast<u32>(ctx.pending_);
        r.last_sweep = static_cast<u32>(inner);
        ctx.pending_ = 0;
      };
      std::vector<u32> dirty;
      const bool all_first = first(b, dirty);
      ECLP_CHECK_MSG(all_first || carried,
                     "block-jacobi kernel '"
                         << name << "' named first-sweep threads, but the "
                                    "previous block-jacobi launch had "
                                    "another geometry");
      bool block_updated = true;
      u64 inner = 0;
      while (block_updated) {
        ECLP_CHECK_MSG(inner < max_inner,
                       "block-jacobi kernel '" << name << "' block " << b
                                               << " exceeded " << max_inner
                                               << " inner iterations");
        ++inner;
        const u64 effects_before = step_effects(ctx);
        if (inner == 1 && all_first) {
          for (u32 t = 0; t < tpb; ++t) run_thread_sweep(t, inner);
          block.sweeps += tpb;
        } else {
          for (usize i = 0; i < dirty.size(); ++i) {
            ECLP_ASSERT_MSG(dirty[i] < tpb &&
                                (i == 0 || dirty[i - 1] < dirty[i]),
                            "block-jacobi kernel '"
                                << name << "' block " << b
                                << ": dirty threads must be ascending, "
                                   "unique and below threads_per_block");
            run_thread_sweep(dirty[i], inner);
          }
          block.sweeps += dirty.size();
        }
        ECLP_ASSERT_MSG(step_effects(ctx) == effects_before,
                        "block-jacobi kernel '"
                            << name << "': a step issued an instrumented "
                                       "atomic or classified access");
        // Block-wide synchronization: every resident thread participates,
        // active or not — this is the overhead the paper's §6.2.1 tunes
        // away.
        block.sync += static_cast<u64>(tpb) * cost_.sync_per_thread;
        // The commit callback records its resolved-intent outcomes through
        // record_block_atomic(b, ...), which lands in this block's shard
        // during a block-independent launch.
        dirty.clear();
        block_updated = commit(b, inner, dirty);
      }
      // Charge the replayed sweeps, sum the block, and leave each thread's
      // last sweep charge for the next launch to replay.
      for (u32 t = 0; t < tpb; ++t) {
        Replay& r = replay[t];
        const u64 w = r.work + r.sweep_work * (inner - r.last_sweep);
        block.add_thread(w);
        r.work = 0;
        r.last_sweep = 0;
      }
      block_work_[b] = block;
      block_iters[b] = inner;
    };
    if (cfg.block_independent) {
      run_blocks(cfg, [&](u32 b, AtomicStats& shard) { run_block(b, &shard); });
    } else {
      for (u32 b = 0; b < cfg.blocks; ++b) run_block(b, nullptr);
    }
    replay_cfg_ = cfg;

    KernelStats ks;
    ks.name = name;
    ks.config = cfg;
    ks.block_inner_iterations = std::move(block_iters);
    for (const BlockWork& block : block_work_) {
      ks.executed_thread_sweeps += block.sweeps;
    }
    ks.cost = finalize_cost(cfg);
    record_trace(ks, atomics_before);
    return ks;
  }

  // --- host-side modeling ---------------------------------------------------
  /// Charge one host-side bookkeeping operation (e.g. recomputing a launch
  /// configuration before a kernel launch, paper §6.2.3).
  void host_op(u64 count = 1);

  // --- host parallelism ------------------------------------------------------
  /// Attach a host thread pool (not owned; nullptr = sequential). Devices
  /// attach the process-wide shared_pool() at construction; tests inject
  /// local pools to pin a worker count. Only launches flagged
  /// block_independent use it — results are bit-identical either way.
  void set_pool(Pool* pool) { pool_ = pool; }
  Pool* pool() const { return pool_; }
  /// Worker threads block-independent launches fan out over (>= 1).
  u32 workers() const { return pool_ == nullptr ? 1 : pool_->size(); }

  /// Record an atomic outcome on behalf of `block` from host-resolved
  /// buffered intents (the launch_block_jacobi commit callback). During a
  /// block-independent launch this routes to the block's private shard so
  /// concurrently executing blocks never contend; otherwise it lands in the
  /// device-wide tally directly.
  void record_block_atomic(u32 block, AtomicOutcome outcome, u64 n = 1) {
    if (block_stats_ != nullptr) {
      (*block_stats_)[block].stats.record(outcome, n);
    } else {
      atomics_.record(outcome, n);
    }
  }

  // --- accounting ------------------------------------------------------------
  const CostModel& cost_model() const { return cost_; }
  AtomicStats& atomic_stats() { return atomics_; }
  const AtomicStats& atomic_stats() const { return atomics_; }
  /// Modeled cycles accumulated since construction or reset_cycles().
  u64 total_cycles() const { return total_cycles_; }
  void reset_cycles() { total_cycles_ = 0; }
  u64 kernel_launches() const { return launches_; }

  ScheduleMode schedule_mode() const { return mode_; }
  u64 seed() const { return seed_; }

  /// Cumulative modeled-LLC outcomes since construction (0/0 while the
  /// cache is disabled). Profile sessions read deltas of these to tag
  /// spans, mirroring total_cycles().
  u64 llc_hits() const { return llc_hits_; }
  u64 llc_misses() const { return llc_misses_; }

  /// Attach a launch observer (profile sessions). Not owned; pass nullptr
  /// to detach. Called once per launch, on the host thread, after all
  /// blocks have joined. Wall-clock and per-block times are only measured
  /// while an observer is attached.
  void set_launch_observer(LaunchObserver* observer) { observer_ = observer; }
  LaunchObserver* launch_observer() const { return observer_; }

  /// Number of threads the paper's per-thread tables are averaged over
  /// (196,608 on the RTX 4090 = sm_count * resident threads); for us it is
  /// whatever the launch used — exposed for symmetric reporting.
  static constexpr u32 kWarpSize = 32;

 private:
  /// One block's share of a launch, summed thread by thread.
  struct BlockWork {
    u64 work = 0;        ///< Σ thread work
    u64 max_thread = 0;  ///< longest single thread's work
    u32 active = 0;      ///< threads with work > 0
    u64 sync = 0;        ///< block-wide synchronization charges
    u64 sweeps = 0;      ///< thread sweeps executed (block-jacobi only)
    void add_thread(u64 w) {
      work += w;
      max_thread = std::max(max_thread, w);
      active += w > 0 ? 1 : 0;
    }
  };
  /// Cost the launch from block_work_ and charge it to the device.
  KernelCost finalize_cost(const LaunchConfig& cfg);
  /// finalize_cost for launch_cooperative: block_work_ summed from the
  /// work_ table first.
  KernelCost finalize_thread_work(const LaunchConfig& cfg);
  /// Hand the finished launch to the observer, if one is attached.
  void record_trace(const KernelStats& stats, u64 atomics_before);

  /// True when a launch observer is attached — gates every
  /// observability-only cost (wall clocks, per-block times).
  bool observing() const { return observer_ != nullptr; }
  /// Stamp the launch's wall-clock start when observed; free otherwise.
  void begin_observation() {
    if (observing()) launch_wall_start_ = monotonic_ns();
  }

  /// Size and cold-reset the per-block LLC slices for the next launch
  /// (no-op while the cache is disabled). Capacity is reused; each slice
  /// starts cold so a launch's hit/miss counts never depend on what ran
  /// before it or on the grid-to-worker assignment.
  void prepare_caches(u32 blocks) {
    if (!cost_.cache.enabled) return;
    while (block_caches_.size() < blocks) {
      block_caches_.emplace_back();
      block_caches_.back().configure(cost_.cache);
    }
    for (u32 b = 0; b < blocks; ++b) block_caches_[b].reset();
  }

  ThreadCtx make_ctx(const LaunchConfig& cfg, u32 block, u32 thread,
                     AtomicStats* stats = nullptr) {
    ThreadCtx ctx;
    ctx.cost_ = &cost_;
    ctx.stats_ = stats == nullptr ? &atomics_ : stats;
    ctx.cache_ = cost_.cache.enabled ? &block_caches_[block] : nullptr;
    ctx.block_ = block;
    ctx.block_dim_ = cfg.threads_per_block;
    ctx.grid_dim_ = cfg.blocks;
    point_ctx(ctx, thread);
    return ctx;
  }

  /// Re-point a context at another thread of its block.
  static void point_ctx(ThreadCtx& ctx, u32 thread) {
    ctx.thread_ = thread;
    ctx.global_ = ctx.block_ * ctx.block_dim_ + thread;
  }

  /// Commit a context's accumulated tally into its thread's work_ slot;
  /// called after every cooperative step.
  void flush_cost(ThreadCtx& ctx) {
    work_[ctx.global_] += ctx.pending_;
    ctx.pending_ = 0;
  }

  /// Instrumented atomics plus classified accesses seen through `ctx` so
  /// far: a launch_block_jacobi step must leave this unchanged.
  static u64 step_effects(const ThreadCtx& ctx) {
    u64 n = ctx.stats_->total();
    if (ctx.cache_ != nullptr) n += ctx.cache_->hits() + ctx.cache_->misses();
    return n;
  }

  /// Run thread `thread` of a block's context to completion and add its
  /// tally to the block's sum. Order does not matter: a block sums its
  /// threads' work, keeps the longest and counts the busy ones.
  template <typename Body>
  static void run_in_block(ThreadCtx& ctx, u32 thread, BlockWork& block,
                           Body& body) {
    point_ctx(ctx, thread);
    body(ctx);
    block.add_thread(ctx.pending_);
    ctx.pending_ = 0;
  }

  /// Execute `block_body(block, stats_shard)` for every block of a
  /// block-independent launch — across the pool when attached, in block
  /// order otherwise — then fold the per-block atomic-outcome shards into
  /// the device tally in block-index order. Identical results either way.
  /// The pool hand-off is the one remaining type-erasure boundary: one
  /// std::function per launch, invoked once per block.
  template <typename BlockBody>
  void run_blocks(const LaunchConfig& cfg, BlockBody&& block_body) {
    std::vector<BlockStats> shards(cfg.blocks);
    block_stats_ = &shards;
    try {
      if (pool_ != nullptr && pool_->size() > 1 && cfg.blocks > 1) {
        pool_->run(cfg.blocks, [&](u64 b, u32 /*worker*/) {
          block_body(static_cast<u32>(b), shards[b].stats);
        });
      } else {
        for (u32 b = 0; b < cfg.blocks; ++b) block_body(b, shards[b].stats);
      }
    } catch (...) {
      block_stats_ = nullptr;
      throw;
    }
    block_stats_ = nullptr;
    // Deterministic merge: block-index order, independent of which worker
    // ran which block (and of whether a pool was attached at all).
    for (u32 b = 0; b < cfg.blocks; ++b) atomics_.merge(shards[b].stats);
  }

  /// Seed of the per-block PRNG stream for block `b` of the launch with
  /// index `launch_index` — a pure function of the device seed, so shuffled
  /// interleavings of block-independent launches do not depend on the
  /// worker count or on other launches' draws.
  u64 block_stream_seed(u64 launch_index, u32 block) const {
    return splitmix64(splitmix64(seed_ ^ (launch_index + 1)) ^
                      (0x9e3779b97f4a7c15ULL * (block + 1)));
  }

  CostModel cost_;
  AtomicStats atomics_;
  u64 seed_;
  ScheduleMode mode_;
  Rng rng_;
  u64 total_cycles_ = 0;
  u64 launches_ = 0;
  u64 llc_hits_ = 0;    ///< cumulative modeled-LLC hits (cache enabled only)
  u64 llc_misses_ = 0;  ///< cumulative modeled-LLC misses
  LaunchObserver* observer_ = nullptr;
  u64 launch_wall_start_ = 0;
  // Per-block modeled times of the launch currently finalizing; collected
  // only while observing. Capacity reused across launches.
  std::vector<u64> block_cycles_;
  Pool* pool_ = nullptr;
  // Per-thread work of the launch_cooperative() currently executing, whose
  // threads take many steps; capacity is reused across launches (assign,
  // not reconstruct). The other disciplines sum straight into block_work_.
  std::vector<u64> work_;
  // Per-block sums of the launch currently finalizing.
  std::vector<BlockWork> block_work_;
  // launch_block_jacobi replay table, per thread: the work charged so far
  // this launch, the charge of its last executed sweep (checked to fit 32
  // bits, which keeps the entry at 16 bytes) and that sweep's index (0
  // between launches, when the charge carries over). It carries over
  // between consecutive launches of geometry replay_cfg_ ({0, 0} when
  // nothing carries).
  struct Replay {
    u64 work = 0;
    u32 sweep_work = 0;
    u32 last_sweep = 0;
  };
  static_assert(sizeof(Replay) == 16);
  std::vector<Replay> replay_;
  LaunchConfig replay_cfg_{0, 0};
  // Per-block modeled-LLC slices (empty while the cache is disabled).
  // Each block of a launch touches only its own slice (alignas(64) keeps
  // them on distinct cache lines), so block-parallel execution is race-free
  // and the block-order fold in finalize_cost is deterministic.
  std::vector<CacheSim> block_caches_;
  // Per-block atomic-outcome shards of the block-independent launch
  // currently executing (null outside one).
  struct alignas(64) BlockStats {
    AtomicStats stats;
  };
  std::vector<BlockStats>* block_stats_ = nullptr;
};

}  // namespace eclp::sim
