// oneshot-cold: twelve eclp-run-shaped jobs with no graph cache.
//
// This is the only workload where generation, parsing, transforms and
// reordering all weigh in next to simulation; the serving layers are
// bypassed. Each job obtains its graph (suite generator or one of four file
// formats written in set-up), fits it to the algorithm, optionally
// reorders it and simulates — the eclp-run pipeline — and is verified
// against the sequential reference outside the timed region.
#include <filesystem>
#include <string_view>

#include "e2e.hpp"
#include "gen/suite.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/transforms.hpp"
#include "support/prng.hpp"
#include "support/rss.hpp"

namespace eclp::e2e {

namespace {

using serve::Algo;

struct Job {
  Algo algo;
  const char* input;    ///< suite input name
  const char* format;   ///< "" = generate; else the file set-up writes
  const char* reorder;  ///< "" = natural order
};

// Gorder stays off the large inputs: it takes about a minute on
// coPapersDBLP at default scale.
constexpr Job kJobs[] = {
    {Algo::kCc, "soc-LiveJournal1", "", ""},
    {Algo::kGc, "kron_g500-logn21", "", ""},
    {Algo::kMis, "rmat22.sym", "", ""},
    {Algo::kMst, "europe_osm", "", ""},
    {Algo::kMst, "cit-Patents", "", ""},
    {Algo::kScc, "toroid-hex", "", ""},
    {Algo::kCc, "USA-road-d.USA", "gr", ""},
    {Algo::kGc, "as-skitter", "mtx", ""},
    {Algo::kMis, "in-2004", "el", ""},
    {Algo::kCc, "r4-2e23.sym", "eclg", ""},
    {Algo::kGc, "delaunay_n24", "", "gorder"},
    {Algo::kCc, "coPapersDBLP", "", "hub"},
};
constexpr usize kNumJobs = std::size(kJobs);

std::string file_of(const Options& opt, const Job& job) {
  return opt.work_dir + "/" + job.input + "." + job.format;
}

/// Set-up: write the graph files the file jobs read.
void write_files(const Options& opt, gen::Scale scale) {
  std::filesystem::create_directories(opt.work_dir);
  for (const Job& job : kJobs) {
    if (*job.format == '\0') continue;
    graph::Csr g = gen::find_input(job.input).make(scale);
    // DIMACS .gr carries arc weights.
    if (std::string_view(job.format) == "gr") {
      g = graph::with_random_weights(g, 1);
    }
    graph::save_any(g, file_of(opt, job));
  }
}

struct JobResult {
  double wall_ms = 0.0;
  u64 cycles = 0;
  u64 peak_rss = 0;
};

/// One job, each step timed at its public entry point and recorded as a
/// child span of the job when tracing.
JobResult run_job(const Job& job, const Options& opt, gen::Scale scale,
                  u64 weights_seed, const std::string& id, Spans& spans,
                  Outcome& out) {
  const bool want_directed = job.algo == Algo::kScc;
  restart_peak_rss();
  const u64 start = monotonic_ns();
  const i32 span = spans.add("job", id, start, start);
  u64 t = start;
  const auto lap = [&](const std::string& layer) {
    const u64 now = monotonic_ns();
    spans.add(layer, id, t, now, span);
    t = now;
  };

  graph::Csr g;
  if (*job.format == '\0') {
    g = gen::find_input(job.input).make(scale);
    lap("gen.make");
  } else {
    g = graph::load_any(file_of(opt, job), want_directed);
    const std::string format = job.format;
    lap(format == "eclg" ? "graph.load.eclg" : "graph.parse." + format);
  }
  const bool symmetrize = !want_directed && g.directed();
  if (symmetrize) g = graph::symmetrize(g);
  const bool weigh = job.algo == Algo::kMst && !g.weighted();
  if (weigh) g = graph::with_random_weights(g, weights_seed);
  if (symmetrize || weigh) lap("graph.transform");
  if (*job.reorder != '\0') {
    g = graph::apply_reorder(g, graph::ReorderSpec::parse(job.reorder));
    lap(std::string("graph.reorder.") + job.reorder);
  }
  // The verification inside run_algo happens after its end_ns reading.
  const AlgoRun run = run_algo(job.algo, g, /*verify=*/true);
  spans.add(std::string("sim.simulate.") + serve::algo_name(job.algo), id,
            t, run.end_ns, span);
  spans.set_end(span, run.end_ns);

  JobResult r;
  r.wall_ms = ms_between(start, run.end_ns);
  r.peak_rss = peak_rss_bytes();
  r.cycles = run.cycles;
  out.record(run.verified, "job " + id + ": verification failed");
  return r;
}

/// One pass over all jobs in seed-shuffled order.
PassStats run_pass(const Options& opt, gen::Scale scale, u64 weights_seed,
                   Rng& order_rng, const std::string& tag, Spans& spans,
                   Outcome& out) {
  PassStats pass;
  for (const u32 i : order_rng.permutation(kNumJobs)) {
    const Job& job = kJobs[i];
    const std::string id =
        tag + "." + serve::algo_name(job.algo) + "." + job.input;
    const JobResult r = run_job(job, opt, scale, weights_seed, id, spans, out);
    pass.add(r.wall_ms, i);
    pass.seconds += r.wall_ms / 1e3;
    pass.peak_rss = std::max(pass.peak_rss, r.peak_rss);
    pass.cycles += r.cycles;
  }
  return pass;
}

}  // namespace

Outcome oneshot_cold(const Options& opt) {
  Outcome out;
  const gen::Scale scale = opt.smoke ? gen::Scale::kTiny : gen::Scale::kDefault;
  const u64 weights_seed = splitmix64(opt.seed);
  Rng order_rng(splitmix64(opt.seed ^ 0x6f6e6573686f74ULL));

  timed_setup(opt, out, [&] { write_files(opt, scale); });

  Spans untraced(false);
  std::vector<double> rates;
  const usize passes =
      repeat_for(opt.seconds, opt.smoke ? 1 : 2, [&](usize pass) {
        std::string tag = "p";
        tag += std::to_string(pass);
        const PassStats r = run_pass(opt, scale, weights_seed, order_rng, tag,
                                     untraced, out);
        add_end_to_end(r, out);
        rates.push_back(r.rate());
      });
  out.info.set("passes", static_cast<u64>(passes));
  out.info.set("jobs_per_pass", static_cast<u64>(kNumJobs));

  if (opt.trace) {
    Spans spans(true);
    const PassStats r =
        run_pass(opt, scale, weights_seed, order_rng, "t", spans, out);
    add_layer_times(spans, out);
    out.add("sim.modeled_mcycles", static_cast<double>(r.cycles) / 1e6);
    out.info.set("trace_coverage_min", spans.min_coverage("job"));
    out.add("trace.overhead_pct", overhead_pct(rates, r.rate()));
    spans.append_chrome(out.trace_events);
  }
  return out;
}

}  // namespace eclp::e2e
