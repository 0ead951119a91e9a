// Modeled last-level cache, simulated per thread block.
//
// The cost model (cost_model.hpp) distinguishes coalesced from scattered
// traffic, but a flat scattered cost cannot *measure* locality: reordering
// the vertices of a graph changes which scattered accesses land on the
// same cache line, and that is exactly the effect the paper's numbering
// observations (ECL-CC init, ECL-SCC in-block propagation) ride on. The
// CacheSim is a set-associative tag array with LRU replacement; each
// thread block of a launch owns a private, cold-at-launch slice, and
// ThreadCtx consults it for every classified access (load/store/atomic).
//
// Determinism. Three properties make the modeled hit/miss counts a pure
// function of the program, not of the machine:
//  * per-block simulation: a block's access stream is already required to
//    be worker-count-invariant (the block-independent launch contract), so
//    its private cache sees the same accesses in the same order no matter
//    how many host workers execute the launch;
//  * page-aligned device memory: every array a kernel touches through
//    ThreadCtx::load/store/atomic_* is a sim::DeviceVector, whose storage
//    starts on a kDevicePage boundary (as cudaMalloc's allocations do).
//    Lines are at most one page long, so which elements share a line
//    depends on element indices alone, and two arrays never share one;
//  * first-touch line renaming: addresses are grouped into lines by
//    `line_bytes`, then each distinct line is renamed to a dense id in
//    first-touch order *within the block*. Set indexing and tag matching
//    use only the dense id, so absolute addresses never reach the set
//    mapping.
//
// See docs/SIMULATOR.md ("Modeled LLC") for the full argument and the
// model's deliberate simplifications.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "support/types.hpp"

namespace eclp::sim {

/// One block's private LLC slice. alignas(64): slices live in a flat
/// per-launch vector and are updated concurrently by different blocks.
class alignas(64) CacheSim {
 public:
  /// Shape the tag array for `cfg` and reset to cold. `line_bytes` and
  /// `sets` must be powers of two, `ways >= 1`.
  void configure(const CacheConfig& cfg);
  /// Back to cold (tags invalid, counters zero); keeps the shape.
  void reset();

  /// Classify one access; returns true on hit. Counters always accumulate.
  bool access(std::uintptr_t addr);

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }

 private:
  /// Dense first-touch id of the raw line (open-addressed map).
  u64 rename(u64 raw_line);

  u32 line_shift_ = 6;
  u32 ways_ = 8;
  u32 set_mask_ = 63;
  u64 tick_ = 0;
  u64 next_dense_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
  std::vector<u64> tags_;    ///< sets*ways entries; dense id + 1, 0 = empty
  std::vector<u64> stamps_;  ///< LRU stamp per entry
  // First-touch rename table: open addressing, key = raw line + 1 (0 means
  // empty), grown at 70% load.
  std::vector<std::pair<u64, u64>> rename_;
  usize rename_count_ = 0;
};

/// Alignment of every device allocation (sim::DeviceAllocator, the
/// cudaMalloc analogue). A line may be at most this long, so an array's
/// line grouping depends on element indices alone.
inline constexpr u32 kDevicePage = 4096;
/// Largest sets x ways a spec may ask for: every block of a launch sizes
/// its own slice at that many tag and stamp entries.
inline constexpr u64 kMaxCacheEntries = 65536;

/// Parse a --llc / request "llc" spec:
///   ""            -> disabled (the default model)
///   "off"         -> disabled
///   "on"          -> enabled with the CacheConfig defaults
///   "L:W:S"       -> enabled with line_bytes L, ways W, sets S
/// Throws CheckFailure on anything else, naming the spec: a field that does
/// not fit u32, a line above kDevicePage, or sets x ways above
/// kMaxCacheEntries.
CacheConfig parse_cache_config(const std::string& spec);

/// Canonical spec string ("off" or "64:8:64") — stable across field
/// reordering, used for cache/pool keys and bench labels.
std::string cache_config_label(const CacheConfig& cfg);

}  // namespace eclp::sim
