// Work-stealing host thread pool.
//
// Originally built for block-parallel simulation (sim/device.hpp dispatches
// the blocks of a *block-independent* launch across a Pool's workers), the
// pool is deliberately generic: the graph-ingest pipeline (graph/builder.hpp,
// support/parallel_for.hpp) runs on the same substrate. The scheduling is
// classic range-splitting work stealing: the task range is split into one
// contiguous chunk per worker, each worker drains its own chunk from the
// front, and a worker that runs dry steals the upper half of the largest
// remaining chunk. Stealing only moves *which worker* executes a task, never
// what the task computes — determinism is the caller's discipline (per-task
// state, shard merges in task-index order), not the scheduler's.
//
// Exceptions thrown by task bodies are captured per task; after every
// worker has drained, the exception of the *lowest* failing task index is
// rethrown, so a failing parallel run reports the same task a sequential
// sweep would have reported first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/types.hpp"
#include "support/worker.hpp"

namespace eclp {

class Pool {
 public:
  /// Create a pool of `workers` worker slots (clamped to
  /// [1, kMaxWorkerSlots]). `workers == 0` means one slot per hardware
  /// thread. A pool of size 1 runs everything inline on the caller.
  explicit Pool(u32 workers);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  u32 size() const { return workers_; }

  /// Run `fn(task, worker)` once for every task in [0, tasks). The calling
  /// thread participates as worker 0. Returns when every task has finished;
  /// rethrows the captured exception of the lowest failing task index, if
  /// any. Reentrant calls (from inside a task), and calls from another
  /// thread while a run is in flight, degrade to inline sequential
  /// execution on the caller.
  void run(u64 tasks, const std::function<void(u64 task, u32 worker)>& fn);

  // --- worker sampling -------------------------------------------------------
  /// Per-worker participation accounting, accumulated across run() calls
  /// while sampling is enabled. busy_ns is the wall-clock a worker spent
  /// draining (claiming, stealing, executing); utilization is busy_ns over
  /// the sampling window measured by the consumer (profile::Session).
  struct WorkerSample {
    u32 worker = 0;
    u64 busy_ns = 0;  ///< wall-clock spent inside drain()
    u64 drains = 0;   ///< runs this worker participated in
    u64 tasks = 0;    ///< tasks this worker executed
  };

  /// Claim the pool's per-drain wall-clock sampling for one consumer (a
  /// profile session's measurement window). On success every worker's
  /// sample is reset, sampling turns on, and the call returns true. Only
  /// one consumer holds the claim at a time: while it does, further claims
  /// — concurrent sessions on devices sharing this pool, or nested ones —
  /// return false and change nothing. Unclaimed, a run() takes zero clock
  /// reads.
  bool claim_sampling();
  /// End a successful claim: sampling turns off and the pool can be
  /// claimed again.
  void release_sampling() { sampling_.store(false); }
  bool sampling() const { return sampling_.load(std::memory_order_relaxed); }
  /// Snapshot of every worker's accumulated sample. Safe from any thread
  /// outside a task: it waits for a pooled run in flight to join.
  std::vector<WorkerSample> worker_samples() const;

 private:
  struct alignas(64) Chunk {
    // Owned range [next, end). `next` advances from the front (owner and
    // thieves both claim one task at a time via the mutex); a steal moves
    // the upper half of the range to the thief's chunk. The atomics allow
    // lock-free *scanning* for the largest victim; mutations happen under
    // the chunk mutex.
    std::atomic<u64> next{0};
    std::atomic<u64> end{0};
    std::mutex m;
  };

  void worker_main(u32 slot);
  void drain(u32 slot, const std::function<void(u64, u32)>& fn);
  /// Claim one task for `slot`, stealing if its own chunk is empty.
  /// Returns false when no work is left anywhere.
  bool claim(u32 slot, u64& task);
  void record_failure(u64 task);

  u32 workers_ = 1;
  std::vector<std::thread> threads_;
  std::vector<Chunk> chunks_;

  // Each slot is written only by its own worker inside drain(), which only
  // pooled runs reach; resets and reads hold run_mutex_, so they never
  // overlap a pooled run and plain fields suffice.
  struct alignas(64) SampleSlot {
    u64 busy_ns = 0;
    u64 drains = 0;
    u64 tasks = 0;
  };
  std::vector<SampleSlot> samples_;
  // True while a consumer holds the sampling claim.
  std::atomic<bool> sampling_{false};

  // Held by the external caller for the whole of a pooled run(), and by
  // claim_sampling() and worker_samples() while they touch samples_.
  mutable std::mutex run_mutex_;
  // Job hand-off: generation bumps wake the workers; `active_` counts
  // workers still draining the current job.
  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  u64 generation_ = 0;
  u32 active_ = 0;
  bool shutdown_ = false;
  const std::function<void(u64, u32)>* job_ = nullptr;

  std::mutex failure_mutex_;
  u64 failed_task_ = ~u64{0};
  std::exception_ptr failure_;
};

/// Clamp a requested worker count to [1, kMaxWorkerSlots]; 0 maps to one
/// worker per hardware thread (what Pool's constructor does internally).
u32 clamp_worker_count(u32 n);

/// Worker count requested by environment variable `name` (ECLP_SIM_THREADS,
/// ECLP_BUILD_THREADS), clamped like clamp_worker_count. An unset, empty,
/// or invalid value — not a plain decimal, negative, or beyond u32 — yields
/// clamp_worker_count(fallback) instead, so no value ever wraps.
u32 worker_count_from_env(const char* name, u32 fallback);

}  // namespace eclp
