#include <algorithm>
#include <cmath>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "e2e.hpp"
#include "sim/device.hpp"
#include "support/rss.hpp"
#include "support/stats.hpp"

namespace eclp::e2e {

namespace {

template <typename Result, typename Solution>
void finish(AlgoRun& r, const Result& res, const Solution& solution) {
  r.end_ns = monotonic_ns();
  r.cycles = res.modeled_cycles;
  r.checksum = fingerprint<typename Solution::value_type>(solution);
}

std::string layer_metric(const std::string& span_name) {
  const usize first = span_name.find('.');
  const usize second =
      first == std::string::npos ? first : span_name.find('.', first + 1);
  if (second == std::string::npos) return span_name + "_ms";
  return span_name.substr(0, second) + "_ms" + span_name.substr(second);
}

double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace

void Outcome::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 10) errors.push_back(what);
}

i32 Spans::add(std::string name, std::string id, u64 start_ns, u64 end_ns,
               i32 parent, u32 lane) {
  if (!enabled_) return -1;
  spans_.push_back(
      {std::move(name), std::move(id), start_ns, end_ns, parent, lane});
  return static_cast<i32>(spans_.size() - 1);
}

void Spans::set_end(i32 span, u64 end_ns) {
  if (span >= 0) spans_[static_cast<usize>(span)].end_ns = end_ns;
}

std::map<std::string, double> Spans::self_ms() const {
  std::vector<double> self(spans_.size());
  for (usize i = 0; i < spans_.size(); ++i) {
    self[i] += ms_between(spans_[i].start_ns, spans_[i].end_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<usize>(spans_[i].parent)] -=
          ms_between(spans_[i].start_ns, spans_[i].end_ns);
    }
  }
  std::map<std::string, double> by_name;
  for (usize i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return by_name;
}

double Spans::min_coverage(const std::string& root) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<usize>(s.parent)] += ms_between(s.start_ns, s.end_ns);
    }
  }
  double lowest = 1.0;
  for (usize i = 0; i < spans_.size(); ++i) {
    const double total = ms_between(spans_[i].start_ns, spans_[i].end_ns);
    if (spans_[i].name == root && total > 0.0) {
      lowest = std::min(lowest, covered[i] / total);
    }
  }
  return lowest;
}

void Spans::append_chrome(json::Value& events) const {
  u64 epoch = ~u64{0};
  for (const Span& s : spans_) epoch = std::min(epoch, s.start_ns);
  for (const Span& s : spans_) {
    json::Value e = json::Value::object();
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start_ns - epoch) / 1e3);
    e.set("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    e.set("pid", 1);
    e.set("tid", s.lane);
    json::Value args = json::Value::object();
    args.set("id", s.id);
    if (s.parent >= 0) {
      args.set("parent", spans_[static_cast<usize>(s.parent)].name);
    }
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
}

void add_layer_times(const Spans& spans, Outcome& out) {
  for (const auto& [name, ms] : spans.self_ms()) {
    // Root spans (job, request, round) are containers, not layers.
    if (name.find('.') != std::string::npos) out.add(layer_metric(name), ms);
  }
}

AlgoRun run_algo(serve::Algo algo, const graph::Csr& g, bool verify) {
  AlgoRun r;
  r.start_ns = monotonic_ns();
  sim::Device dev;
  switch (algo) {
    case serve::Algo::kCc: {
      const auto res = algos::cc::run(dev, g);
      finish(r, res, res.labels);
      r.verified = !verify || algos::cc::verify(g, res.labels);
      break;
    }
    case serve::Algo::kGc: {
      const auto res = algos::gc::run(dev, g);
      finish(r, res, res.colors);
      r.verified = !verify || algos::gc::verify(g, res.colors);
      break;
    }
    case serve::Algo::kMis: {
      const auto res = algos::mis::run(dev, g);
      finish(r, res, res.status);
      r.verified = !verify || algos::mis::verify(g, res.status);
      break;
    }
    case serve::Algo::kMst: {
      const auto res = algos::mst::run(dev, g);
      finish(r, res, res.in_mst);
      r.verified = !verify || algos::mst::verify(g, res);
      break;
    }
    case serve::Algo::kScc: {
      const auto res = algos::scc::run(dev, g);
      finish(r, res, res.scc_id);
      r.verified = !verify || algos::scc::verify(g, res.scc_id);
      break;
    }
  }
  return r;
}

void add_end_to_end(const PassStats& pass, Outcome& out) {
  const u64 n = pass.latency_ms.size();
  // Geomean over kinds of each kind's median latency, so a kind that runs
  // more often does not weigh more.
  std::map<usize, std::vector<double>> by_kind;
  for (usize i = 0; i < n; ++i) {
    by_kind[pass.kind[i]].push_back(pass.latency_ms[i]);
  }
  std::vector<double> kind_medians;
  for (const auto& [kind, ms] : by_kind) {
    kind_medians.push_back(stats::median(ms));
  }
  out.add("requests_per_s", pass.rate(), n);
  out.add("latency_p50_ms", stats::percentile(pass.latency_ms, 50), n);
  out.add("latency_p90_ms", stats::percentile(pass.latency_ms, 90), n);
  out.add("latency_geomean_ms", geomean(kind_medians), n);
  out.add("peak_rss_mib", mib(pass.peak_rss));
}

void restart_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  reset_peak_rss();
}

double ms_between(u64 start_ns, u64 end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double mib(u64 bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

double overhead_pct(const std::vector<double>& untraced_rates,
                    double traced_rate) {
  return 100.0 * (stats::median(untraced_rates) / traced_rate - 1.0);
}

}  // namespace eclp::e2e
