// eclp-e2e: the end-to-end and per-layer wall-clock benchmark.
//
// Four workloads (oneshot.cpp, serve.cpp, ingest.cpp) each run a set-up
// phase, a measured phase of whole passes or rounds, and — when tracing —
// one extra traced pass that yields the per-layer numbers. Every layer is
// timed from outside, at its public entry point; nothing in src/ is
// instrumented. See README.md for the metric dictionary.
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/cache.hpp"
#include "graph/csr.hpp"
#include "serve/request.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"
#include "support/types.hpp"

namespace eclp::e2e {

/// Closed-loop serving load, sized for a 4-core host.
inline constexpr u32 kClients = 4;
inline constexpr u32 kServerThreads = 4;

struct Options {
  u64 seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< add the traced pass and the per-layer metrics
  bool smoke = false;     ///< tiny inputs, one set-up, one pass
  std::string work_dir;   ///< scratch files (oneshot-cold's graph files)
};

/// What one workload measured and checked.
struct Outcome {
  /// One value per set-up repetition, pass or round for end-to-end
  /// metrics; the traced run's value for per-layer metrics.
  std::map<std::string, std::vector<double>> values;
  /// Observations behind each metric's values (requests behind a latency
  /// percentile, say); one per value unless add() says otherwise.
  std::map<std::string, u64> samples;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  ///< the first few failure messages
  json::Value info = json::Value::object();         ///< workload facts
  json::Value trace_events = json::Value::array();  ///< Chrome-trace events

  void add(const std::string& metric, double value, u64 observations = 1) {
    values[metric].push_back(value);
    samples[metric] += observations;
  }
  /// Count one attempted operation; a false `ok` counts it as failed.
  void record(bool ok, const std::string& what);
};

/// Spans recorded around layer calls in the traced run. A disabled
/// recorder keeps nothing. Times are monotonic_ns() readings.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Record a span; returns its index (-1 when disabled). `id` names the
  /// job or request, `lane` the Chrome-trace thread row.
  i32 add(std::string name, std::string id, u64 start_ns, u64 end_ns,
          i32 parent = -1, u32 lane = 0);
  void set_end(i32 span, u64 end_ns);

  /// Self time (duration minus the children's durations) summed per span
  /// name, in milliseconds.
  std::map<std::string, double> self_ms() const;
  /// The lowest share of a `root` span's duration that its children cover.
  double min_coverage(const std::string& root) const;
  /// Append the spans as Chrome-trace complete events, relative to the
  /// earliest span.
  void append_chrome(json::Value& events) const;

 private:
  struct Span {
    std::string name;
    std::string id;
    u64 start_ns = 0;
    u64 end_ns = 0;
    i32 parent = -1;
    u32 lane = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Add every span's self time as its per-layer metric: "_ms" after the
/// name's second component ("graph.parse.mtx" -> "graph.parse_ms.mtx").
void add_layer_times(const Spans& spans, Outcome& out);

/// 32-hex content fingerprint: the graph-cache key mix over the values'
/// bytes, as eclp-serve checksums a solution vector.
template <typename T>
std::string fingerprint(std::span<const T> values) {
  graph::CacheKey key;
  key.mix(std::string_view(reinterpret_cast<const char*>(values.data()),
                           values.size_bytes()));
  return key.hex();
}

/// One algorithm run the way eclp-serve executes a request: a fresh
/// deterministic Device, the solution reduced to the response checksum.
struct AlgoRun {
  u64 start_ns = 0;  ///< the simulation alone: Device construction + run
  u64 end_ns = 0;
  u64 cycles = 0;
  std::string checksum;
  bool verified = true;  ///< the sequential reference agreed (when asked)
};
AlgoRun run_algo(serve::Algo algo, const graph::Csr& g, bool verify);

/// What one measured pass or round did: the raw material of every
/// end-to-end metric, defined once for all workloads.
struct PassStats {
  double seconds = 0.0;            ///< measured wall time of the pass
  std::vector<double> latency_ms;  ///< one per job, request or build
  std::vector<usize> kind;         ///< which job/spec/family each one was
  u64 peak_rss = 0;  ///< peak RSS while the operations ran
  u64 cycles = 0;    ///< modeled cycles of the pass's simulations

  void add(double ms, usize k) {
    latency_ms.push_back(ms);
    kind.push_back(k);
  }
  double rate() const {
    return static_cast<double>(latency_ms.size()) / seconds;
  }
};

/// Add one pass's value of every end-to-end metric except setup_s.
void add_end_to_end(const PassStats& pass, Outcome& out);

/// Run `pass(i)` for about `seconds`: at least `min_passes` times, then
/// again only while the next pass is expected to end in time. Returns the
/// number of passes run.
template <typename Fn>
usize repeat_for(double seconds, usize min_passes, Fn&& pass) {
  Timer t;
  usize n = 0;
  while (n < min_passes ||
         t.seconds() * static_cast<double>(n + 1) / static_cast<double>(n) <=
             seconds) {
    pass(n);
    ++n;
  }
  return n;
}

/// Run `setup()` at least three times and for about three seconds in all
/// (once in smoke runs), adding each duration as a setup_s value: the
/// reported set-up time is their median.
template <typename Fn>
void timed_setup(const Options& opt, Outcome& out, Fn&& setup) {
  repeat_for(opt.smoke ? 0.0 : 3.0, opt.smoke ? 1 : 3, [&](usize) {
    Timer t;
    setup();
    out.add("setup_s", t.seconds());
  });
}

/// Hand freed heap back to the OS, then restart the peak-RSS watermark:
/// the next peak_rss_bytes() reads the peak of the work in between, not of
/// memory earlier work left cached in the allocator — as in a fresh
/// one-shot process.
void restart_peak_rss();

double ms_between(u64 start_ns, u64 end_ns);
double mib(u64 bytes);
/// Tracing overhead: how much slower the traced pass ran than the median
/// untraced one, in percent of the untraced rate.
double overhead_pct(const std::vector<double>& untraced_rates,
                    double traced_rate);

Outcome oneshot_cold(const Options& opt);
Outcome serve_warm(const Options& opt);
Outcome serve_churn(const Options& opt);
Outcome ingest_huge(const Options& opt);

}  // namespace eclp::e2e
