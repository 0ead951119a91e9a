// Unified profiling sessions: hierarchical spans over one algorithm run.
//
// The paper's counters (CounterRegistry), the per-launch general metrics,
// and the bench JSON artifacts each show one face of a run; a Session ties
// them together with *phase structure*:
//
//   algorithm span            opened by the algorithm's run()
//    └─ phase / iteration     RAII ScopedSpan annotations inside run()
//        └─ kernel launch     recorded automatically via sim::LaunchObserver
//
// Every span close snapshots deltas of modeled cycles, device atomics, the
// launch count, and — when a CounterRegistry is attached — every registry
// counter, so "which phase spent what" needs no manual bookkeeping. The
// host pool contributes per-worker wall-clock/utilization samples, putting
// modeled time and real simulator time side by side; one session at a time
// claims a pool's sampling, and the others record no worker samples.
//
// A Session is the device's only launch recorder: its kernel spans also
// feed the per-kernel timeline views in profile/timeline.hpp (eclp-run
// --timeline, bench_general_metrics).
//
// Sessions export two artifacts:
//  * perfetto_json(): Chrome trace-event JSON loadable in Perfetto
//    (https://ui.perfetto.dev). The timebase is MODELED CYCLES (1 cycle
//    rendered as 1 "µs"), never wall-clock, so the trace is byte-stable
//    across machines and sim-thread counts — phases nest on one track,
//    kernels and per-block slices sit on their own tracks, and counter
//    totals ride along as counter tracks.
//  * profile_json(): a versioned, self-describing schema ("eclp.profile"
//    version 1) consumed by tools/eclp_profile_diff for run-to-run
//    regression gating. This artifact additionally carries wall-clock and
//    per-worker samples; see profile/diff.hpp for what is gated.
//
// Attachment model: constructing a Session registers it as the device's
// launch observer AND as the thread-local *current session*, which is what
// the zero-plumbing ScopedSpan annotations in the algorithms consult. Both
// registrations save and restore the previous holder, so sessions nest
// (useful in tests); algorithms run without a session see one thread-local
// null check per annotation and nothing else.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "profile/registry.hpp"
#include "sim/device.hpp"
#include "support/json.hpp"
#include "support/pool.hpp"

namespace eclp::profile {

enum class SpanKind : u8 { kAlgorithm, kPhase, kIteration, kOperator, kKernel };
const char* span_kind_name(SpanKind kind);

struct Span {
  u32 id = 0;
  i32 parent = -1;  ///< span id of the parent; -1 for roots
  u32 depth = 0;
  std::string name;
  SpanKind kind = SpanKind::kPhase;
  // Modeled interval (device cycles at open/close).
  u64 start_cycles = 0;
  u64 end_cycles = 0;
  // Real simulator wall-clock interval, ns since the session epoch.
  u64 wall_start_ns = 0;
  u64 wall_end_ns = 0;
  // Device deltas over the span.
  u64 atomics = 0;
  u64 launches = 0;
  // Modeled-LLC deltas over the span; 0/0 (and omitted from every export)
  // while the cache is disabled, so cache-off artifacts are unchanged.
  u64 llc_hits = 0;
  u64 llc_misses = 0;
  /// Registry counter deltas over the span (name-ordered; only counters
  /// that changed). Filled at close when a registry is attached.
  std::vector<std::pair<std::string, u64>> counters;
  // Kernel spans only (kind == kKernel):
  u32 blocks = 0;
  u32 threads_per_block = 0;
  u32 active_threads = 0;
  u32 idle_threads = 0;
  double imbalance = 1.0;
  std::vector<u64> block_cycles;  ///< per-block modeled times

  u64 cycles() const { return end_cycles - start_cycles; }
  u64 wall_ns() const { return wall_end_ns - wall_start_ns; }
};

struct SessionOptions {
  /// Include wall-clock fields in profile_json(). On by default; tests
  /// that pin artifacts byte-for-byte turn it off.
  bool record_wall = true;
};

class Session : public sim::LaunchObserver {
 public:
  using Options = SessionOptions;

  /// Attach to a device; `registry` (optional, not owned) adds counter
  /// snapshots to every span. Registers this session as the device's
  /// launch observer and as the thread-local current session.
  explicit Session(sim::Device& dev, CounterRegistry* registry = nullptr,
                   Options options = {});
  /// Detaches, restores the previous observer/current session, and — when
  /// set_output() was called — finalizes and writes both artifacts.
  ~Session() override;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The session the calling thread's annotations attach to, if any.
  static Session* current();

  // --- spans ----------------------------------------------------------------
  u32 open_span(std::string name, SpanKind kind);
  void close_span(u32 id);
  /// Close any spans still open (in LIFO order), snapshot pool worker
  /// samples and release the pool's sampling claim. Idempotent; called
  /// automatically by the exporters and the destructor.
  void finalize();

  // --- metadata ---------------------------------------------------------------
  /// Free-form metadata recorded into both artifacts ("algo", "graph",
  /// "seed", ...). Later values for the same key win.
  void set_meta(const std::string& key, const std::string& value);

  /// Write both artifacts on destruction: the profile schema to
  /// `profile_path` and the Perfetto trace next to it (trace_path_for).
  void set_output(std::string profile_path);
  /// "out.json" -> "out.trace.json"; non-.json paths get ".trace.json"
  /// appended.
  static std::string trace_path_for(const std::string& profile_path);

  // --- sim::LaunchObserver ----------------------------------------------------
  void on_launch(const sim::KernelStats& stats, u64 atomics_delta,
                 u64 wall_ns, std::span<const u64> block_cycles) override;

  // --- results ----------------------------------------------------------------
  std::span<const Span> spans() const { return spans_; }
  /// Device launch count when the session attached; the first kernel span
  /// recorded is launch start_launches() + 1.
  u64 start_launches() const { return start_launches_; }
  /// Per-worker samples of the device's pool over the session. Empty when
  /// the device has no pool, or when another session (concurrent on a
  /// device sharing the pool, or an outer one) held its sampling claim.
  std::span<const Pool::WorkerSample> worker_samples() const {
    return workers_;
  }

  /// Chrome trace-event JSON on the modeled-cycle timebase (deterministic).
  std::string perfetto_json();
  /// The versioned profile document (see docs/OBSERVABILITY.md for the
  /// schema). Deterministic except for wall_ns/worker fields.
  json::Value profile();
  std::string profile_json();
  /// Write both artifacts; returns false (with a stderr warning) when a
  /// file cannot be written.
  bool write(const std::string& profile_path);

 private:
  struct OpenState {
    u32 span_id = 0;
    u64 atomics_at_open = 0;
    u64 launches_at_open = 0;
    u64 llc_hits_at_open = 0;
    u64 llc_misses_at_open = 0;
    /// Registry totals at open, name-ordered (consumed when the span
    /// closes to produce the span's counter deltas).
    std::vector<std::pair<std::string, u64>> counter_totals;
  };

  std::vector<std::pair<std::string, u64>> snapshot_counters() const;
  void emit_counter_samples(u64 at_cycles);

  sim::Device& dev_;
  CounterRegistry* registry_;
  Options options_;
  u64 epoch_ns_ = 0;
  u64 start_cycles_ = 0;
  u64 start_launches_ = 0;
  u64 start_llc_hits_ = 0;
  u64 start_llc_misses_ = 0;
  sim::AtomicStats atomics_at_start_;  ///< copy of the device tally at attach
  // Totals frozen at finalize() so exports are stable afterwards.
  u64 final_cycles_ = 0;
  u64 final_launches_ = 0;
  u64 final_llc_hits_ = 0;
  u64 final_llc_misses_ = 0;
  sim::AtomicStats atomics_at_end_;

  std::vector<Span> spans_;
  std::vector<OpenState> stack_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Pool::WorkerSample> workers_;
  bool finalized_ = false;
  u64 finalize_wall_ns_ = 0;  ///< session wall at finalize (utilization base)

  /// Counter-track samples for the Perfetto export: (cycles, name, total).
  struct CounterSample {
    u64 cycles;
    std::string name;
    u64 total;
  };
  std::vector<CounterSample> counter_samples_;
  std::vector<std::pair<std::string, u64>> last_sampled_totals_;

  std::string output_path_;
  sim::LaunchObserver* prev_observer_ = nullptr;
  Session* prev_current_ = nullptr;
  /// The pool whose sampling this session claimed until finalize(); null
  /// when the device has no pool or another session holds the claim.
  Pool* sampled_pool_ = nullptr;
};

/// Zero-plumbing RAII span annotation: attaches to Session::current() and
/// is a no-op (one thread-local load) when no session is active. Use the
/// (kind, base, index) form inside iteration loops — the name string is
/// only built when a session is live.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanKind kind = SpanKind::kPhase)
      : session_(Session::current()) {
    if (session_ != nullptr) id_ = session_->open_span(name, kind);
  }
  ScopedSpan(SpanKind kind, const char* base, u64 index)
      : session_(Session::current()) {
    if (session_ != nullptr) {
      id_ = session_->open_span(std::string(base) + " " +
                                    std::to_string(index),
                                kind);
    }
  }
  ~ScopedSpan() { end(); }
  /// Close the span before the end of the C++ scope (phases that flow into
  /// one another without a natural brace boundary).
  void end() {
    if (session_ != nullptr) session_->close_span(id_);
    session_ = nullptr;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Session* session_;
  u32 id_ = 0;
};

}  // namespace eclp::profile
