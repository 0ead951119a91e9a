#include "serve/telemetry.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "support/check.hpp"
#include "support/timer.hpp"

namespace eclp::serve {

namespace {

ClockFn resolve_clock(ClockFn clock) {
  if (clock) return clock;
  return [] { return monotonic_ns(); };
}

/// Metric names use dots; Prometheus wants [a-zA-Z0-9_:] with an eclp_
/// namespace prefix.
std::string prom_name(const std::string& name) {
  std::string out = "eclp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

// --- TraceLog ----------------------------------------------------------------

TraceLog::TraceLog(ClockFn clock_ns) : clock_(resolve_clock(std::move(clock_ns))) {
  epoch_ns_ = clock_();
}

u64 TraceLog::open(const std::string& request_id) {
  std::lock_guard<std::mutex> lk(mutex_);
  traces_.push_back(Trace{request_id, {}, false});
  return traces_.size() - 1;
}

std::string TraceLog::id_string(u64 trace) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%08llx",
                static_cast<unsigned long long>(trace));
  return buf;
}

void TraceLog::emit(u64 trace, const char* event, json::Value fields) {
  const u64 ts_us = (clock_() - epoch_ns_) / 1000;
  std::lock_guard<std::mutex> lk(mutex_);
  ECLP_CHECK_MSG(trace < traces_.size(), "unknown trace " << trace);
  Trace& t = traces_[trace];
  json::Value line = json::Value::object();
  line.set("trace", id_string(trace));
  line.set("id", t.request_id);
  line.set("event", event);
  line.set("ts_us", ts_us);
  for (const auto& [key, value] : fields.members()) line.set(key, value);
  t.lines.push_back(line.dump());
}

void TraceLog::close(u64 trace) {
  std::lock_guard<std::mutex> lk(mutex_);
  ECLP_CHECK_MSG(trace < traces_.size(), "unknown trace " << trace);
  traces_[trace].done = true;
  // Flush grouped, in admission order: a completed trace waits until every
  // earlier-admitted trace completed, which is what makes the log
  // byte-identical across serving thread counts.
  while (flushed_ < traces_.size() && traces_[flushed_].done) {
    for (const std::string& line : traces_[flushed_].lines) {
      text_ += line;
      text_ += '\n';
    }
    traces_[flushed_].lines.clear();
    flushed_++;
  }
}

std::string TraceLog::text() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return text_;
}

bool TraceLog::write(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) {
    std::fprintf(stderr, "trace log: cannot write %s\n", path.c_str());
    return false;
  }
  os << text();
  return os.good();
}

// --- Telemetry ---------------------------------------------------------------

Telemetry::Telemetry(metrics::Registry& registry, TelemetryOptions options)
    : registry_(registry),
      options_(std::move(options)),
      clock_(resolve_clock(options_.clock_ns)) {
  if (options_.prom_path.empty() && !options_.jsonl_path.empty()) {
    options_.prom_path = prom_path_for(options_.jsonl_path);
  }
}

Telemetry::~Telemetry() {
  {
    std::lock_guard<std::mutex> lk(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Telemetry::start() {
  if (options_.interval_ms == 0 || thread_.joinable()) return;
  thread_ = std::thread([this] { loop(); });
}

void Telemetry::loop() {
  std::unique_lock<std::mutex> lk(stop_mutex_);
  for (;;) {
    stop_cv_.wait_for(lk, std::chrono::milliseconds(options_.interval_ms),
                      [&] { return stop_; });
    if (stop_) return;
    lk.unlock();
    snapshot();
    lk.lock();
  }
}

std::string Telemetry::prom_path_for(const std::string& jsonl_path) {
  const std::string suffix = ".jsonl";
  if (jsonl_path.size() > suffix.size() &&
      jsonl_path.compare(jsonl_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return jsonl_path.substr(0, jsonl_path.size() - suffix.size()) + ".prom";
  }
  return jsonl_path + ".prom";
}

json::Value Telemetry::to_json(const metrics::Snapshot& snap, u64 seq,
                               u64 ts_ns) {
  json::Value doc = json::Value::object();
  doc.set("schema", "eclp.metrics");
  doc.set("version", u64{1});
  doc.set("seq", seq);
  doc.set("ts_ns", ts_ns);
  json::Value counters = json::Value::object();
  for (const auto& [name, value] : snap.counters) counters.set(name, value);
  doc.set("counters", std::move(counters));
  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : snap.gauges) gauges.set(name, value);
  doc.set("gauges", std::move(gauges));
  json::Value histograms = json::Value::object();
  for (const metrics::HistogramSnapshot& h : snap.histograms) {
    json::Value entry = json::Value::object();
    entry.set("count", h.data.count);
    entry.set("sum", h.data.sum);
    entry.set("p50", h.data.quantile_floor(0.50));
    entry.set("p90", h.data.quantile_floor(0.90));
    entry.set("p99", h.data.quantile_floor(0.99));
    json::Value buckets = json::Value::array();
    for (usize b = 0; b < metrics::Histogram::kBuckets; ++b) {
      if (h.data.buckets[b] == 0) continue;
      json::Value pair = json::Value::array();
      pair.push_back(profile::Log2Histogram::bucket_floor(b));
      pair.push_back(h.data.buckets[b]);
      buckets.push_back(std::move(pair));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(entry));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

std::string Telemetry::to_prometheus(const metrics::Snapshot& snap) {
  std::string out;
  const auto line = [&out](const std::string& name, u64 v) {
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prom_name(name) + "_total";
    out += "# TYPE " + p + " counter\n";
    line(p, value);
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  for (const metrics::HistogramSnapshot& h : snap.histograms) {
    const std::string p = prom_name(h.name);
    out += "# TYPE " + p + " histogram\n";
    u64 cumulative = 0;
    for (usize b = 0; b < metrics::Histogram::kBuckets; ++b) {
      if (h.data.buckets[b] == 0) continue;
      cumulative += h.data.buckets[b];
      // Bucket b covers [floor(b), floor(b + 1)): inclusive upper bound.
      const u64 le = b + 1 < metrics::Histogram::kBuckets
                         ? profile::Log2Histogram::bucket_floor(b + 1) - 1
                         : ~u64{0};
      line(p + "_bucket{le=\"" + std::to_string(le) + "\"}", cumulative);
    }
    line(p + "_bucket{le=\"+Inf\"}", h.data.count);
    line(p + "_sum", h.data.sum);
    line(p + "_count", h.data.count);
  }
  return out;
}

json::Value Telemetry::snapshot() {
  std::lock_guard<std::mutex> lk(mutex_);
  const metrics::Snapshot snap = registry_.snapshot();
  const json::Value doc = to_json(snap, seq_++, clock_());
  if (!options_.jsonl_path.empty()) {
    std::ofstream os(options_.jsonl_path, std::ios::binary | std::ios::app);
    if (os.good()) {
      os << doc.dump() << '\n';
    } else {
      std::fprintf(stderr, "telemetry: cannot append %s\n",
                   options_.jsonl_path.c_str());
    }
  }
  if (!options_.prom_path.empty()) {
    std::ofstream os(options_.prom_path, std::ios::binary | std::ios::trunc);
    if (os.good()) {
      os << to_prometheus(snap);
    } else {
      std::fprintf(stderr, "telemetry: cannot write %s\n",
                   options_.prom_path.c_str());
    }
  }
  return doc;
}

// --- schema validation -------------------------------------------------------

void validate_metrics_snapshot(const json::Value& doc) {
  ECLP_CHECK_MSG(doc.is_object(), "snapshot: not a JSON object");
  ECLP_CHECK_MSG(doc.at("schema").as_string() == "eclp.metrics",
                 "snapshot: schema is not eclp.metrics");
  ECLP_CHECK_MSG(doc.at("version").as_u64() == 1,
                 "snapshot: unsupported version "
                     << doc.at("version").as_u64());
  doc.at("seq").as_u64();
  doc.at("ts_ns").as_u64();
  for (const auto& [name, value] : doc.at("counters").members()) {
    ECLP_CHECK_MSG(value.is_number(), "counter " << name << ": not a number");
  }
  for (const auto& [name, value] : doc.at("gauges").members()) {
    ECLP_CHECK_MSG(value.is_number(), "gauge " << name << ": not a number");
  }
  for (const auto& [name, value] : doc.at("histograms").members()) {
    ECLP_CHECK_MSG(value.is_object(), "histogram " << name << ": not an object");
    u64 bucket_total = 0;
    for (const json::Value& pair : value.at("buckets").items()) {
      ECLP_CHECK_MSG(pair.is_array() && pair.items().size() == 2,
                     "histogram " << name << ": bucket entry is not a "
                                  << "[floor, count] pair");
      bucket_total += pair.items()[1].as_u64();
    }
    ECLP_CHECK_MSG(bucket_total == value.at("count").as_u64(),
                   "histogram " << name
                                << ": bucket counts do not sum to count");
    value.at("sum").as_u64();
    for (const char* q : {"p50", "p90", "p99"}) value.at(q).as_u64();
  }
}

profile::DiffReport diff_metrics(const json::Value& base,
                                 const json::Value& cand, double counter_tol,
                                 double latency_tol) {
  validate_metrics_snapshot(base);
  validate_metrics_snapshot(cand);
  const auto rows = [&](const json::Value& snap) {
    std::vector<profile::DiffRow> out;
    for (const char* name :
         {"serve.failed", "serve.rejected", "pool.misses", "pool.evictions"}) {
      const json::Value* v = snap.at("counters").find(name);
      out.push_back({std::string("counter/") + name,
                     v == nullptr ? 0.0 : static_cast<double>(v->as_u64()),
                     counter_tol});
    }
    for (const auto& [name, h] : snap.at("histograms").members()) {
      out.push_back({"histogram/" + name + "/p99", h.at("p99").as_number(),
                     latency_tol});
    }
    return out;
  };
  return profile::diff_rows(rows(base), rows(cand));
}

}  // namespace eclp::serve
