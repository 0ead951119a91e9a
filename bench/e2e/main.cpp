// eclp-e2e — the end-to-end and per-layer wall-clock benchmark.
//
//   $ eclp-e2e --workload=all --seed=1 --json=out.json
//   $ eclp-e2e --workload=serve-warm --seconds=10 --trace=traces/
//   $ eclp-e2e --compare=before.json,after.json
//
// Prints every metric with its unit, then — as the last line of standard
// output — one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics, or the per-layer ones when tracing. --json writes
// the full report: a host block and, per metric, every run's value with
// min/median/max and the sample count. Any failed check exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "e2e.hpp"
#include "graph/cache.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/parallel_for.hpp"
#include "support/stats.hpp"

using namespace eclp;
using namespace eclp::e2e;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  double bound;        ///< allowed worsening, share of the median (0: none)
};

// The benchmark's contract; BENCHMARK.json at the repository root mirrors
// it, and README.md says which layer metric moves which end-to-end one.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"requests_per_s", "1/s", "higher", 0.25},
    {"latency_p50_ms", "ms", "lower", 0.25},
    {"latency_p90_ms", "ms", "lower", 0.25},
    {"latency_geomean_ms", "ms", "lower", 0.25},
    {"peak_rss_mib", "MiB", "lower", 0.25},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.make_ms", "ms", "lower", 0},
    {"gen.emit_pass_ms.uniform", "ms", "lower", 0},
    {"gen.emit_pass_ms.rmat", "ms", "lower", 0},
    {"gen.emit_pass_ms.pa", "ms", "lower", 0},
    {"gen.build_speedup_4t", "ratio", "higher", 0},
    {"graph.parse_ms.mtx", "ms", "lower", 0},
    {"graph.parse_ms.gr", "ms", "lower", 0},
    {"graph.parse_ms.el", "ms", "lower", 0},
    {"graph.load_ms.eclg", "ms", "lower", 0},
    {"graph.transform_ms", "ms", "lower", 0},
    {"graph.reorder_ms.gorder", "ms", "lower", 0},
    {"graph.reorder_ms.hub", "ms", "lower", 0},
    {"graph.stream_build_ms.uniform", "ms", "lower", 0},
    {"graph.stream_build_ms.rmat", "ms", "lower", 0},
    {"graph.stream_build_ms.pa", "ms", "lower", 0},
    {"graph.assembly_ms.uniform", "ms", "lower", 0},
    {"graph.assembly_ms.rmat", "ms", "lower", 0},
    {"graph.assembly_ms.pa", "ms", "lower", 0},
    {"graph.stream_peak_mib.uniform", "MiB", "lower", 0},
    {"graph.stream_peak_mib.rmat", "MiB", "lower", 0},
    {"graph.stream_peak_mib.pa", "MiB", "lower", 0},
    {"graph.materialized_build_ms.rmat", "ms", "lower", 0},
    {"graph.materialized_peak_mib.rmat", "MiB", "lower", 0},
    {"graph.pool_acquire_ms_p50.hit", "ms", "lower", 0},
    {"graph.pool_acquire_ms_p50.miss", "ms", "lower", 0},
    {"graph.pool_hit_ratio", "ratio", "higher", 0},
    {"graph.pool_evictions", "count", "lower", 0},
    {"graph.pool_peak_mib", "MiB", "lower", 0},
    {"sim.simulate_ms.cc", "ms", "lower", 0},
    {"sim.simulate_ms.gc", "ms", "lower", 0},
    {"sim.simulate_ms.mis", "ms", "lower", 0},
    {"sim.simulate_ms.mst", "ms", "lower", 0},
    {"sim.simulate_ms.scc", "ms", "lower", 0},
    {"sim.modeled_mcycles", "Mcycles", "lower", 0},
    {"sim.exec_ms_p50", "ms", "lower", 0},
    {"sim.exec_inflation", "ratio", "lower", 0},
    {"serve.queue_wait_ms_p50", "ms", "lower", 0},
    {"serve.queue_wait_ms_p90", "ms", "lower", 0},
    {"serve.queue_wait_share", "ratio", "lower", 0},
    {"serve.worker_busy_frac", "ratio", "higher", 0},
    {"serve.mean_wave_size", "count", "higher", 0},
    {"serve.latency_p99_ms", "ms", "lower", 0},
    {"serve.render_ms", "ms", "lower", 0},
    {"serve.speedup_4t", "ratio", "higher", 0},
    {"trace.overhead_pct", "%", "lower", 0},
};

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"oneshot-cold", oneshot_cold},
    {"serve-warm", serve_warm},
    {"serve-churn", serve_churn},
    {"ingest-huge", ingest_huge},
};

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

json::Value host_block(const Options& opt) {
  const sim::Device dev;
  json::Value h = json::Value::object();
  h.set("nproc", std::thread::hardware_concurrency());
  h.set("compiler", compiler());
  h.set("build_type", ECLP_E2E_BUILD_TYPE);
  h.set("eclp_hardened", ECLP_HARDENED != 0);
  h.set("sim_threads", dev.pool() == nullptr ? 1u : dev.pool()->size());
  h.set("build_threads", build_threads());
  h.set("client_threads", kClients);
  h.set("server_threads", kServerThreads);
  h.set("seed", opt.seed);
  h.set("seconds", opt.seconds);
  h.set("traced", opt.trace);
  h.set("smoke", opt.smoke);
  return h;
}

/// Interquartile range over the median, as Python's
/// statistics.quantiles(values, n=4) computes the quartiles; 0 for fewer
/// than two values.
double spread(std::vector<double> xs) {
  if (xs.size() < 2) return 0.0;
  std::sort(xs.begin(), xs.end());
  const i64 m = static_cast<i64>(xs.size()) + 1;
  double q[2] = {0.0, 0.0};
  for (i64 i : {1, 3}) {
    const i64 j =
        std::clamp<i64>(i * m / 4, 1, static_cast<i64>(xs.size()) - 1);
    const i64 delta = i * m - j * 4;
    q[i / 2] = (xs[static_cast<usize>(j - 1)] * static_cast<double>(4 - delta) +
                xs[static_cast<usize>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  const double med = stats::median(xs);
  return med == 0.0 ? 0.0 : (q[1] - q[0]) / std::abs(med);
}

json::Value summarize(const MetricDef& def, const std::vector<double>& values,
                      u64 samples) {
  json::Value m = json::Value::object();
  m.set("unit", def.unit);
  m.set("better", def.better);
  if (def.bound > 0) m.set("bound", def.bound);
  m.set("min", *std::min_element(values.begin(), values.end()));
  m.set("median", stats::median(values));
  m.set("max", *std::max_element(values.begin(), values.end()));
  m.set("runs", static_cast<u64>(values.size()));
  m.set("samples", samples);
  json::Value all = json::Value::array();
  for (const double v : values) all.push_back(v);
  m.set("values", std::move(all));
  return m;
}

/// The workload's report section. An end-to-end metric the workload did
/// not measure is a benchmark bug and fails the run; a per-layer metric it
/// did not measure is a layer the workload does not cross, reported as 0.
json::Value report(const std::string& name, Outcome& o, bool traced) {
  json::Value e2e = json::Value::object();
  for (const MetricDef& def : kEndToEnd) {
    const auto it = o.values.find(def.name);
    if (it == o.values.end()) {
      o.record(false, std::string("metric ") + def.name + " not measured");
      continue;
    }
    e2e.set(def.name, summarize(def, it->second, o.samples[def.name]));
  }
  json::Value r = json::Value::object();
  r.set("workload", name);
  r.set("attempted", o.attempted);
  r.set("failed", o.failed);
  r.set("error_rate", o.attempted == 0 ? 1.0
                                       : static_cast<double>(o.failed) /
                                             static_cast<double>(o.attempted));
  json::Value errors = json::Value::array();
  for (const std::string& e : o.errors) errors.push_back(e);
  r.set("errors", std::move(errors));
  r.set("info", o.info);
  r.set("end_to_end", std::move(e2e));
  if (traced) {
    json::Value layers = json::Value::object();
    for (const MetricDef& def : kPerLayer) {
      const auto it = o.values.find(def.name);
      layers.set(def.name,
                 it == o.values.end()
                     ? summarize(def, {0.0}, 0)
                     : summarize(def, it->second, o.samples[def.name]));
    }
    r.set("per_layer", std::move(layers));
  }
  return r;
}

void print_section(const std::string& workload, const json::Value& section) {
  for (const auto& [name, m] : section.members()) {
    std::printf("%-13s %-34s %14.6g %-8s [%g .. %g, %llu runs, %llu "
                "samples]\n",
                workload.c_str(), name.c_str(), m.at("median").as_number(),
                m.at("unit").as_string().c_str(), m.at("min").as_number(),
                m.at("max").as_number(),
                static_cast<unsigned long long>(m.at("runs").as_u64()),
                static_cast<unsigned long long>(m.at("samples").as_u64()));
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  ECLP_CHECK_MSG(os.good(), "cannot write " << path);
}

json::Value read_json(const std::string& path) {
  std::ifstream is(path);
  ECLP_CHECK_MSG(is.is_open(), "cannot open " << path);
  std::stringstream ss;
  ss << is.rdbuf();
  return json::Value::parse(ss.str());
}

std::vector<double> values_of(const json::Value& metric) {
  std::vector<double> xs;
  for (const json::Value& v : metric.at("values").items()) {
    xs.push_back(v.as_number());
  }
  return xs;
}

/// --compare: for every metric of every workload in both reports, both
/// medians, both spreads and a verdict. A metric is "worse" when it moved
/// the wrong way by more than its bound, "unresolved" when either side's
/// spread is wider than the bound. Exits 1 on any "worse".
int compare(const std::string& a_path, const std::string& b_path) {
  const json::Value a = read_json(a_path);
  const json::Value b = read_json(b_path);
  bool worse = false;
  std::printf("%-13s %-34s %12s %7s %12s %7s %8s  %s\n", "workload",
              "metric", "A median", "spread", "B median", "spread", "change",
              "verdict");
  for (const auto& [workload, wa] : a.at("workloads").members()) {
    const json::Value* wb = b.at("workloads").find(workload);
    if (wb == nullptr) continue;
    for (const char* section : {"end_to_end", "per_layer"}) {
      const json::Value* sa = wa.find(section);
      const json::Value* sb = wb->find(section);
      if (sa == nullptr || sb == nullptr) continue;
      for (const auto& [name, ma] : sa->members()) {
        const json::Value* mb = sb->find(name);
        if (mb == nullptr) continue;
        const double med_a = ma.at("median").as_number();
        const double med_b = mb->at("median").as_number();
        const double spread_a = spread(values_of(ma));
        const double spread_b = spread(values_of(*mb));
        const bool lower = ma.at("better").as_string() == "lower";
        // Positive = worse, as a share of A's median.
        const double change =
            med_a == 0.0 ? 0.0 : (lower ? 1 : -1) * (med_b - med_a) / med_a;
        std::string verdict = "-";
        if (const json::Value* bound = ma.find("bound")) {
          if (std::max(spread_a, spread_b) > bound->as_number()) {
            verdict = "unresolved";
          } else if (change > bound->as_number()) {
            verdict = "worse";
            worse = true;
          } else {
            verdict = "within bound";
          }
        }
        std::printf("%-13s %-34s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%%  %s\n",
                    workload.c_str(), name.c_str(), med_a, 100 * spread_a,
                    med_b, 100 * spread_b, 100 * change, verdict.c_str());
      }
    }
  }
  return worse ? 1 : 0;
}

/// Run `work` in a child process and return the JSON it produced. Every
/// workload gets a fresh process, as a lone run does, so allocator state
/// and peak RSS never carry over from the workloads before it.
json::Value in_child(const std::function<json::Value()>& work) {
  int fds[2];
  ECLP_CHECK_MSG(pipe(fds) == 0, "pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  ECLP_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string text = work().dump();
      for (usize done = 0; done < text.size();) {
        const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
        if (n <= 0) {
          code = 3;
          break;
        }
        done += static_cast<usize>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "eclp-e2e: %s\n", e.what());
      code = 2;
    }
    std::fflush(stdout);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<usize>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  ECLP_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "workload process failed");
  return json::Value::parse(text);
}

/// Clock ticks the hypervisor gave this guest's CPUs to others (the steal
/// column of /proc/stat, summed over CPUs); 0 where unavailable. Explains a
/// slow run on a shared host.
u64 steal_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  u64 field[8] = {};
  is >> cpu;
  for (u64& f : field) is >> f;
  return is ? field[7] : 0;
}

/// Run one workload, print its metrics and write its Chrome trace; returns
/// its report section.
json::Value run_workload(const Workload& w, const Options& opt,
                         const std::string& trace_dir) {
  const u64 steal = steal_ticks();
  Outcome o = w.run(opt);
  o.info.set("host_steal_s", static_cast<double>(steal_ticks() - steal) /
                                 static_cast<double>(sysconf(_SC_CLK_TCK)));
  json::Value section = report(w.name, o, opt.trace);
  print_section(w.name, section.at("end_to_end"));
  if (opt.trace) print_section(w.name, section.at("per_layer"));
  for (const std::string& e : o.errors) {
    std::printf("%-13s FAILED: %s\n", w.name, e.c_str());
  }
  if (opt.trace) {
    std::filesystem::create_directories(trace_dir);
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(o.trace_events));
    doc.set("displayTimeUnit", "ms");
    write_file(trace_dir + "/" + w.name + ".trace.json", doc.dump());
  }
  return section;
}

int run(const Cli& cli) {
  if (!cli.get("compare").empty()) {
    const std::string pair = cli.get("compare");
    const usize comma = pair.find(',');
    ECLP_CHECK_MSG(comma != std::string::npos,
                   "--compare needs two reports: A.json,B.json");
    return compare(pair.substr(0, comma), pair.substr(comma + 1));
  }

  Options opt;
  opt.seed = static_cast<u64>(cli.get_int("seed"));
  opt.seconds = cli.get_double("seconds");
  opt.trace = !cli.get("trace").empty();
  opt.smoke = cli.get_flag("smoke");
  if (opt.smoke) opt.seconds = 0.0;  // the minimum: one pass or round
  opt.work_dir = cli.get("work-dir");
  // No on-disk graph cache: every generation, parse and reorder is paid.
  graph::set_cache_dir("");

  const std::string wanted = cli.get("workload");
  json::Value workloads = json::Value::object();
  json::Value metrics = json::Value::object();
  u64 attempted = 0;
  u64 failed = 0;
  for (const Workload& w : kWorkloads) {
    if (wanted != "all" && wanted != w.name) continue;
    json::Value section =
        in_child([&] { return run_workload(w, opt, cli.get("trace")); });
    const json::Value& shown =
        section.at(opt.trace ? "per_layer" : "end_to_end");
    for (const auto& [name, m] : shown.members()) {
      json::Value entry = json::Value::object();
      entry.set("value", m.at("median"));
      entry.set("unit", m.at("unit"));
      metrics.set(wanted == "all" ? std::string(w.name) + "/" + name : name,
                  std::move(entry));
    }
    attempted += section.at("attempted").as_u64();
    failed += section.at("failed").as_u64();
    workloads.set(w.name, std::move(section));
  }
  ECLP_CHECK_MSG(workloads.members().size() > 0,
                 "unknown --workload=" << wanted);

  if (!cli.get("json").empty()) {
    json::Value doc = json::Value::object();
    doc.set("schema", "eclp.e2e");
    doc.set("version", 1);
    doc.set("host", host_block(opt));
    doc.set("workloads", std::move(workloads));
    write_file(cli.get("json"), doc.dump(2) + "\n");
  }
  json::Value result = json::Value::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("workload",
                 "oneshot-cold | serve-warm | serve-churn | ingest-huge | all",
                 "all");
  cli.add_option("seed", "workload seed (inputs, orders, MST weights)", "1");
  cli.add_option("seconds", "length of each workload's measured phase", "20");
  cli.add_option("trace",
                 "directory: add a traced pass per workload, report the "
                 "per-layer metrics and write <workload>.trace.json there",
                 "");
  cli.add_option("json", "write the full report (host block, spreads) here",
                 "");
  cli.add_option("work-dir", "scratch directory for generated graph files",
                 "build/e2e/work");
  cli.add_option("compare", "A.json,B.json: compare two reports and exit",
                 "");
  cli.add_flag("smoke",
               "tiny inputs, one set-up and one pass or round; ignores "
               "--seconds");
  cli.add_flag("help", "show usage");
  try {
    cli.parse(argc, argv);
    if (cli.get_flag("help")) {
      std::printf("%s", cli.usage("eclp-e2e").c_str());
      return 0;
    }
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eclp-e2e: %s\n", e.what());
    return 2;
  }
}
