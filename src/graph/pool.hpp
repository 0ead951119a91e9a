// In-process, ref-counted graph pool.
//
// The on-disk .eclg cache (graph/cache.hpp) removes the *build* cost of a
// repeated graph; a serving process that handles many concurrent requests
// also wants to remove the *load* cost and the per-request memory: one
// immutable CSR resident in RAM, shared by every request that needs it
// (GraphCage's argument — keep the graph cache-resident, never rebuild per
// request). The Pool is that resident tier: entries are keyed by the same
// content-addressed keys the disk cache uses, acquired through RAII pins
// that ref-count the entry, and evicted LRU-wise under a byte budget —
// but never while pinned, so a request can hold its graph for as long as
// it runs regardless of what the eviction policy would prefer.
//
// Concurrency contract (the serving harness calls acquire from many
// threads at once):
//  * acquire() is single-flight per key: the first requester builds, every
//    concurrent requester for the same key blocks until the build lands
//    and then shares the entry (counted as a hit — the build was amortized
//    onto the miss that triggered it).
//  * A failed build erases the placeholder and rethrows to the builder;
//    blocked waiters retry and become builders themselves.
//  * Eviction only ever considers entries with zero pins. Pinned bytes can
//    therefore exceed the budget transiently; the pool returns under the
//    budget as pins drop (checked again on every release).
//
// Counting: the pool's metrics instruments (pool.{hits,misses,evictions}
// counters, pool.{bytes,entries} gauges) are its only tally. They live in
// the registry passed at construction (or one the pool owns), move under
// the pool lock, and stats() reads them under that same lock — so a
// telemetry snapshot and stats() report one set of numbers.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "support/metrics.hpp"

namespace eclp::graph {

/// Resident bytes of a CSR (the three payload arrays; the fixed header is
/// noise at graph sizes). The quantity the pool's byte budget meters.
u64 graph_bytes(const Csr& g);

/// Pool observability, read from the pool's instruments. hits + misses ==
/// requests holds by construction: a request is counted at the instant it
/// is classified, as the miss that builds the entry or as a hit on a
/// resident (or in-flight) one. An acquire whose build throws counts as a
/// miss; a waiter that retries after a failed build is classified once,
/// by its final outcome.
struct PoolStats {
  u64 requests = 0;   ///< classified acquire() calls (== hits + misses)
  u64 hits = 0;       ///< served from a resident or in-flight entry
  u64 misses = 0;     ///< this acquire built (and inserted) the graph
  u64 evictions = 0;  ///< entries dropped by the LRU policy (never pinned)
  u64 bytes = 0;      ///< resident payload bytes right now
  u64 peak_bytes = 0; ///< high-water mark of `bytes`
  u64 entries = 0;    ///< resident entries right now
  u64 pinned = 0;     ///< entries with at least one live pin right now
  u64 pins = 0;       ///< live pins right now (0 when no request is running)
};

class Pool {
 public:
  /// `byte_budget` caps resident payload bytes (graph_bytes sums). 0 means
  /// "no sharing": every acquire still works, but entries are dropped as
  /// soon as the last pin releases. The pool registers its instruments in
  /// `registry` (which must outlive it and count for this pool alone), or
  /// in a registry of its own when null (docs/OBSERVABILITY.md, "Runtime
  /// telemetry").
  explicit Pool(u64 byte_budget, metrics::Registry* registry = nullptr);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  class Pin;

  /// Return a pin on the graph stored under `key`, building it with
  /// `build` on a miss. Blocks while another thread builds the same key.
  /// Exceptions from `build` propagate (the pool keeps no trace of the
  /// failed entry).
  Pin acquire(const std::string& key, const std::function<Csr()>& build);

  u64 byte_budget() const { return budget_; }

  PoolStats stats() const;
  /// True when `key` is resident (test/introspection helper; the answer
  /// can be stale the moment the lock drops).
  bool contains(const std::string& key) const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Csr> graph;  ///< set exactly once, at build end
    u64 bytes = 0;
    u64 last_use = 0;  ///< logical LRU clock stamp
    u32 pins = 0;
    bool building = true;
  };

  void release(Entry* e);
  /// Evict zero-pin entries, oldest first, until resident bytes fit the
  /// budget or nothing evictable remains. Caller holds mutex_.
  void evict_to_budget_locked();

  const u64 budget_;
  std::unique_ptr<metrics::Registry> own_metrics_;  ///< when none was given
  // The pool's tally: written and read only under mutex_.
  metrics::Counter* m_hits_;
  metrics::Counter* m_misses_;
  metrics::Counter* m_evictions_;
  metrics::Gauge* m_bytes_;    ///< resident payload bytes
  metrics::Gauge* m_entries_;  ///< entries_.size()
  mutable std::mutex mutex_;
  std::condition_variable built_cv_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  u64 clock_ = 0;
  u64 peak_bytes_ = 0;  ///< high-water mark of m_bytes_

  friend class Pin;
};

/// RAII ref-count on a pooled graph. Movable, not copyable; the pooled CSR
/// stays resident (and is never evicted) while any pin on it lives.
class Pool::Pin {
 public:
  Pin() = default;
  Pin(Pin&& other) noexcept { *this = std::move(other); }
  Pin& operator=(Pin&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      entry_ = other.entry_;
      graph_ = std::move(other.graph_);
      hit_ = other.hit_;
      other.pool_ = nullptr;
      other.entry_ = nullptr;
    }
    return *this;
  }
  ~Pin() { reset(); }

  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

  bool valid() const { return graph_ != nullptr; }
  const Csr& operator*() const { return *graph_; }
  const Csr* operator->() const { return graph_.get(); }
  const Csr* get() const { return graph_.get(); }
  /// True when this acquire shared an existing (or in-flight) entry.
  bool was_hit() const { return hit_; }

  /// Drop the ref-count early (before destruction).
  void reset() {
    if (pool_ != nullptr && entry_ != nullptr) pool_->release(entry_);
    pool_ = nullptr;
    entry_ = nullptr;
    graph_.reset();
  }

 private:
  friend class Pool;
  Pool* pool_ = nullptr;
  Entry* entry_ = nullptr;
  /// Owned alias of the entry's graph: even a (buggy) eviction while
  /// pinned could not invalidate the pointer a request computes over.
  std::shared_ptr<const Csr> graph_;
  bool hit_ = false;
};

}  // namespace eclp::graph
