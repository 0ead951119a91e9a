// Concurrent serving of analytics requests over shared graphs.
//
// The one-shot CLI (tools/eclp_run.cpp) pays graph acquisition and process
// startup per run; the Server executes many requests inside one process:
//
//   submit/serve            bounded pending queue (admission control)
//     └─ worker threads     each pops the next request as soon as it is free
//         └─ execute()      per-request Device + optional profile::Session
//             ├─ acquire    graph::Pool::Pin on the shared CSR; a pool miss
//             │             builds it with prepare_graph (serve/job.hpp)
//             └─ run_job    run, summarize, checksum, verify (serve/job.hpp)
//
// Isolation model: every request gets its own sim::Device (own PRNG
// stream, cycle counter, atomic tallies) and, when profiling, its own
// Session — the only state shared between in-flight requests is the
// immutable pooled CSR and the mutex-guarded pool/cache bookkeeping.
// Modeled results are therefore bit-identical to the same run issued
// through the one-shot CLI, independent of serving thread count or of
// which requests happen to run concurrently (pinned by the serve goldens
// and tests/serve_test.cpp).
//
// Admission control: the pending queue is bounded by max_queue. submit()
// rejects above the bound with a typed Status::kRejected response;
// enqueue()/serve() apply backpressure instead (block until space). At
// most `threads` requests execute at once, so a flooded server degrades
// by rejecting, not by queue growth.
//
// Counting: the server's metrics instruments (serve.* here, pool.* in the
// graph pool) are its only tally, always live. stats() reads them under
// the lock their increments hold, so --stats-json and an eclp.metrics
// snapshot are two renderings of one set of numbers.
#pragma once

#include <array>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/pool.hpp"
#include "serve/request.hpp"
#include "serve/telemetry.hpp"
#include "support/metrics.hpp"

namespace eclp::serve {

struct ServerOptions {
  /// Worker threads (0 = one per hardware thread). Each runs one request
  /// at a time, so this is the concurrency bound on in-flight requests.
  u32 threads = 0;
  /// Pending-queue bound: submit() rejects once this many requests wait.
  usize max_queue = 256;
  /// Byte budget of the in-process graph pool (LRU above it).
  u64 graph_pool_bytes = u64{512} << 20;
  /// When non-empty, every request records a profile::Session written to
  /// <profile_dir>/<id>.json (+ the Perfetto twin). See docs/SERVING.md.
  std::string profile_dir;
  /// Do not start the workers in the constructor; callers fill the queue
  /// first and call start(). Deterministic admission for tests.
  bool manual_start = false;
  /// The registry the server and its graph pool count in: counters
  /// serve.{submitted,accepted,rejected,completed,failed,waves,slow} and
  /// pool.{hits,misses,evictions}, gauges serve.queue.{depth,peak} /
  /// serve.inflight / pool.{bytes,entries}, histograms serve.wave_us and
  /// serve.latency_us.<algo>. Null = a registry the server owns; counting
  /// is on either way, and stats() reads these instruments. A registry
  /// given here serves exactly one server (a second would add into the
  /// first's counts) and must outlive it. A "wave" is a busy period: it
  /// opens when a worker takes a request from an idle server and closes
  /// when the last in-flight request finishes with the queue empty. It is
  /// recorded before that request's response resolves, so wave metrics
  /// are complete once the last response resolves. See
  /// docs/OBSERVABILITY.md, "Runtime telemetry".
  metrics::Registry* metrics = nullptr;
  /// When set, every request's lifecycle is traced (admitted/rejected/
  /// started/pool/finished events). Must outlive the server.
  TraceLog* trace = nullptr;
  /// Slow-request auto-profiling threshold, in milliseconds: requests
  /// whose wall latency exceeds it get their profile::Session span tree
  /// written to `slow_dir` — and *only* those. Negative = off. With a
  /// zero threshold every request is slow (the test hook).
  double slow_ms = -1.0;
  /// Artifact directory for slow requests (defaults to profile_dir;
  /// required via one of the two when slow_ms >= 0).
  std::string slow_dir;
  /// Injectable nanosecond clock for latency measurement (admission
  /// stamps, wall_ms, latency histograms, wave timing). Null = monotonic.
  ClockFn clock_ns;
};

/// A read of the server's instruments (see ServerOptions::metrics).
struct ServerStats {
  u64 submitted = 0;    ///< submit/enqueue calls
  u64 accepted = 0;     ///< admitted to the queue
  u64 rejected = 0;     ///< bounced by admission control
  u64 completed = 0;    ///< executed with Status::kOk
  u64 failed = 0;       ///< executed with Status::kError
  u64 queue_depth = 0;  ///< pending requests right now
  u64 queue_peak = 0;   ///< high-water mark of `queue_depth`
  graph::PoolStats graphs;  ///< in-process graph pool counters
};

/// Render stats as the eclp-serve --stats-json document (fields
/// submitted/accepted/rejected/completed/failed/queue_depth/queue_peak +
/// a "graph_pool" object mirroring PoolStats). Tests parse this back and
/// assert hits + misses == requests.
json::Value stats_to_json(const ServerStats& s);

class Server {
 public:
  explicit Server(ServerOptions options = {});
  /// Drains the queue (every accepted request completes), then joins.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Non-blocking admission: the future is always valid; when the queue
  /// is full it is already fulfilled with a Status::kRejected response.
  std::future<Response> submit(Request req);
  /// Blocking admission: waits for queue space instead of rejecting.
  std::future<Response> enqueue(Request req);
  /// Serve a whole batch with backpressure; responses in request order.
  std::vector<Response> serve(std::vector<Request> requests);

  /// Start the workers (only needed with ServerOptions::manual_start).
  void start();

  ServerStats stats() const;
  const graph::Pool& graph_pool() const { return graphs_; }
  u32 threads() const { return threads_; }

  /// The pool key of a request's algorithm-ready graph: source (suite
  /// name + scale, or file path), directedness as the algorithm wants it,
  /// and the MST weight attachment. Exposed for tests.
  static std::string graph_key(const Request& req);

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    u64 submit_ns = 0;
    u64 trace = 0;        ///< TraceLog id (valid only when traced)
    bool traced = false;  ///< a trace was opened at admission
  };

  /// Live instruments, registered in the constructor so every metric name
  /// exists (at zero) before the first request — snapshots then do not
  /// depend on which algorithms a workload happened to run. The counters
  /// and queue gauges move only under mutex_.
  struct Instruments {
    explicit Instruments(metrics::Registry& m);
    metrics::Counter* submitted;
    metrics::Counter* accepted;
    metrics::Counter* rejected;
    metrics::Counter* completed;
    metrics::Counter* failed;
    metrics::Counter* waves;
    metrics::Counter* slow;
    metrics::Gauge* queue_depth;
    metrics::Gauge* queue_peak;
    metrics::Gauge* inflight;
    metrics::Histogram* wave_us;
    /// Per-algorithm request latency, indexed by Algo.
    std::array<metrics::Histogram*, 5> latency_us;
  };

  void worker_main();
  void admit_locked(Job& job);
  Response execute(const Job& job);
  u64 now_ns() const { return clock_(); }

  ServerOptions options_;
  ClockFn clock_;        ///< resolved: options_.clock_ns or monotonic_ns
  std::unique_ptr<metrics::Registry> own_metrics_;  ///< when none was given
  metrics::Registry& metrics_;  ///< options_.metrics or own_metrics_
  Instruments inst_;
  u32 threads_;          ///< resolved options_.threads
  graph::Pool graphs_;   ///< shared ref-counted CSR pool

  mutable std::mutex mutex_;
  std::condition_variable pending_cv_;  ///< workers: work available
  std::condition_variable space_cv_;    ///< enqueue(): queue has room
  std::deque<Job> pending_;
  u32 running_ = 0;       ///< requests executing right now
  bool in_wave_ = false;  ///< a busy period is open
  u64 wave_start_ns_ = 0;
  bool stop_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eclp::serve
