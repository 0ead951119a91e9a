// Runtime telemetry for the serving layer: snapshot export + request traces.
//
// The metrics registry (support/metrics.hpp) is the in-memory truth; this
// file is how it leaves the process:
//
//  * Telemetry — a snapshot exporter. Every snapshot() merges the registry
//    shards and emits one JSON object ("eclp.metrics" schema, below) —
//    appended as a JSONL time series — plus a Prometheus-style text
//    exposition file rewritten in place. A background thread can snapshot
//    periodically (interval_ms); tests and shutdown paths call snapshot()
//    explicitly. The clock is injectable, so golden tests pin the exports
//    byte-for-byte.
//
//  * TraceLog — a structured JSONL event log of every request's life:
//    admitted (or rejected, with cause), started, pool (hit|miss),
//    finished (status, wall_us, cause on error). Each request gets a trace
//    id at admission; events buffer per trace and flush grouped, in
//    admission order, once the trace closes — so the log is byte-identical
//    across serving thread counts (events never interleave between
//    requests), at the cost of not streaming mid-request.
//
// Snapshot schema ("eclp.metrics" version 1):
//
//   {"schema": "eclp.metrics", "version": 1, "seq": N, "ts_ns": N,
//    "counters":   {"pool.hits": N, ...},
//    "gauges":     {"pool.bytes": N, ...},
//    "histograms": {"serve.latency_us.cc":
//                     {"count": N, "sum": N, "p50": N, "p90": N, "p99": N,
//                      "buckets": [[floor, count], ...]}, ...}}
//
// Instruments are name-sorted; histogram buckets list only non-empty
// log2 buckets as [bucket floor, count] pairs; p50/p90/p99 are the floors
// of the quantile buckets (coarse quantiles — see profile/histogram.hpp).
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "profile/diff.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/types.hpp"

namespace eclp::serve {

/// Injectable nanosecond clock. Null means support/timer.hpp monotonic_ns;
/// tests inject a deterministic clock to make exports byte-stable.
using ClockFn = std::function<u64()>;

class TraceLog {
 public:
  explicit TraceLog(ClockFn clock_ns = {});

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Open a trace for a request; returns the trace id (a dense admission
  /// sequence number — deterministic for a fixed submission order).
  u64 open(const std::string& request_id);
  /// Append one event. `fields` members follow the standard
  /// trace/id/event/ts_us prefix in the emitted line.
  void emit(u64 trace, const char* event,
            json::Value fields = json::Value::object());
  /// Mark the trace complete and flush every consecutive completed trace
  /// (in admission order) into the log text.
  void close(u64 trace);

  /// "00000003" — the id string emitted in event lines and propagated into
  /// profile::Session metadata.
  static std::string id_string(u64 trace);

  /// Flushed log text so far (complete traces only, admission order).
  std::string text() const;
  /// Write text() to a file; false (with a stderr warning) on IO failure.
  bool write(const std::string& path) const;

 private:
  struct Trace {
    std::string request_id;
    std::vector<std::string> lines;
    bool done = false;
  };

  ClockFn clock_;
  u64 epoch_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<Trace> traces_;
  usize flushed_ = 0;  ///< traces_[0, flushed_) already appended to text_
  std::string text_;
};

struct TelemetryOptions {
  /// Snapshot destination, one JSON object per line (appended). Empty =
  /// callers consume the returned json::Value instead.
  std::string jsonl_path;
  /// Prometheus-style text exposition file, rewritten per snapshot.
  /// Empty = derive from jsonl_path (prom_path_for); both empty = none.
  std::string prom_path;
  /// Background snapshot period; 0 = explicit snapshot() calls only.
  u64 interval_ms = 0;
  ClockFn clock_ns;
};

class Telemetry {
 public:
  Telemetry(metrics::Registry& registry, TelemetryOptions options);
  /// Stops the background thread. Does NOT take a final snapshot — the
  /// owner decides whether one more is wanted (eclp-serve always does).
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Start the periodic exporter (no-op when interval_ms == 0).
  void start();

  /// Merge, render, and (when paths are set) write one snapshot; returns
  /// the snapshot document. Thread-safe against the background exporter.
  json::Value snapshot();

  /// "metrics.jsonl" -> "metrics.prom" (non-.jsonl paths get ".prom"
  /// appended) — mirrors profile::Session::trace_path_for.
  static std::string prom_path_for(const std::string& jsonl_path);

  static json::Value to_json(const metrics::Snapshot& snap, u64 seq,
                             u64 ts_ns);
  static std::string to_prometheus(const metrics::Snapshot& snap);

 private:
  void loop();

  metrics::Registry& registry_;
  TelemetryOptions options_;
  ClockFn clock_;
  std::mutex mutex_;  ///< guards seq_ and file writes
  u64 seq_ = 0;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Validate one "eclp.metrics" snapshot document; throws CheckFailure with
/// a field-level message on schema violations (used by eclp-metrics
/// --check and the metrics-smoke tier).
void validate_metrics_snapshot(const json::Value& doc);

/// Gate a candidate snapshot against a base one with profile::diff_rows.
/// The gated rows are the metrics whose growth means the serving layer got
/// worse, not just busier: the serve.failed, serve.rejected, pool.misses
/// and pool.evictions counters against `counter_tol` (a counter missing
/// from a snapshot reads as 0), and every histogram's p99 against
/// `latency_tol`. Both snapshots are validated first.
profile::DiffReport diff_metrics(const json::Value& base,
                                 const json::Value& cand, double counter_tol,
                                 double latency_tol);

}  // namespace eclp::serve
