// Instrumented atomic operations of the simulated device.
//
// The simulator executes one thread step at a time, so atomics are trivially
// linearizable; what matters for profiling is their *outcome*, which real
// profilers do not expose (paper §3.1.5):
//  * atomicCAS either succeeds (old == expected) or fails and must be
//    retried;
//  * atomicMin/atomicMax always complete but may be *ineffective* (the
//    stored value already was the min/max).
// Every operation reports its outcome so kernels can maintain the paper's
// "useless atomics" counters, and an AtomicStats aggregate tallies outcomes
// device-wide.
#pragma once

#include <array>

#include "support/types.hpp"

namespace eclp::sim {

enum class AtomicOutcome : u8 {
  kCasSuccess = 0,
  kCasFailure,
  kMinEffective,
  kMinIneffective,
  kMaxEffective,
  kMaxIneffective,
  kAdd,
  kCount_,
};

/// Device-wide tally of atomic outcomes (resettable between measurement
/// windows). Cheap: one array increment per atomic.
class AtomicStats {
 public:
  void record(AtomicOutcome o) { counts_[static_cast<usize>(o)]++; }
  /// Record `n` operations with the same outcome.
  void record(AtomicOutcome o, u64 n) { counts_[static_cast<usize>(o)] += n; }
  u64 count(AtomicOutcome o) const { return counts_[static_cast<usize>(o)]; }
  void reset() { counts_.fill(0); }
  /// Fold another tally into this one (per-block shard merges).
  void merge(const AtomicStats& other) {
    for (usize i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  }

  u64 cas_total() const {
    return count(AtomicOutcome::kCasSuccess) +
           count(AtomicOutcome::kCasFailure);
  }
  /// Fraction of atomicCAS calls that failed and needed a retry.
  double cas_failure_rate() const {
    const u64 total = cas_total();
    return total == 0
               ? 0.0
               : static_cast<double>(count(AtomicOutcome::kCasFailure)) /
                     static_cast<double>(total);
  }
  u64 min_total() const {
    return count(AtomicOutcome::kMinEffective) +
           count(AtomicOutcome::kMinIneffective);
  }
  /// Fraction of atomicMin calls that did not change the target.
  double min_ineffective_rate() const {
    const u64 total = min_total();
    return total == 0
               ? 0.0
               : static_cast<double>(count(AtomicOutcome::kMinIneffective)) /
                     static_cast<double>(total);
  }
  u64 total() const {
    u64 t = 0;
    for (const u64 c : counts_) t += c;
    return t;
  }

 private:
  std::array<u64, static_cast<usize>(AtomicOutcome::kCount_)> counts_{};
};

}  // namespace eclp::sim
