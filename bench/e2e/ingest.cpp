// ingest-huge: streamed CSR builds of the three chunked generator families
// — uniform (r4-2e23.sym), R-MAT (rmat22.sym) and preferential attachment
// (as-skitter) — with the suite's scale=huge parameters per vertex and the
// workload seed. Generation and CSR assembly are the whole cost; nothing
// simulates. A uniform, a hub-skewed and a PA family split the "streamed
// build loses on skewed graphs" question.
//
// The vertex counts sit kShrink powers of two below scale=huge, so many
// rounds fit the run and the builds stay within a few hundred MiB.
//
// Correctness: one build per family passes Csr::validate() once, untimed,
// before the set-up; every measured build must then reproduce that build's
// arc count and content fingerprint.
#include <algorithm>

#include "e2e.hpp"
#include "gen/stream.hpp"
#include "graph/stream_build.hpp"
#include "support/parallel_for.hpp"
#include "support/prng.hpp"
#include "support/rss.hpp"

namespace eclp::e2e {

namespace {

constexpr u32 kShrink = 3;
constexpr u32 kSmokeShrink = 8;
constexpr usize kFamilies = 3;

struct Sources {
  gen::UniformRandomStream uniform;
  gen::RmatStream rmat;
  gen::PreferentialAttachmentStream pa;
};

Sources make_sources(u64 seed, u32 shrink) {
  const vidx n_uniform = vidx{1} << (24 - shrink);
  const u32 rmat_scale = 22 - shrink;
  const vidx n_pa = vidx{1} << (21 - shrink);
  return {gen::UniformRandomStream(
              n_uniform, u64{n_uniform} * 4,
              splitmix64(seed ^ gen::kStreamTagUniform)),
          gen::RmatStream(rmat_scale, u64{8} << rmat_scale, 0.45, 0.22, 0.22,
                          splitmix64(seed ^ gen::kStreamTagRmat)),
          gen::PreferentialAttachmentStream(
              n_pa, 7, splitmix64(seed ^ gen::kStreamTagPa))};
}

/// fn(index, family name, source) for each family, in a fixed order.
template <typename Fn>
void for_each_family(const Sources& s, Fn&& fn) {
  fn(usize{0}, "uniform", s.uniform);
  fn(usize{1}, "rmat", s.rmat);
  fn(usize{2}, "pa", s.pa);
}

std::string fingerprint(const graph::Csr& g) {
  return e2e::fingerprint(g.row_offsets()) +
         e2e::fingerprint(g.col_indices());
}

/// What every build of a family must reproduce.
struct Expected {
  u64 arcs = 0;
  std::string fingerprint;
};

/// One build per family, validated — the checker, run once and untimed.
std::vector<Expected> expected_builds(const Sources& sources, Outcome& out) {
  std::vector<Expected> expected(kFamilies);
  for_each_family(sources, [&](usize k, const char* name, const auto& src) {
    const graph::Csr g = graph::build_from_chunks(src);
    std::string error;
    try {
      g.validate();
    } catch (const CheckFailure& e) {
      error = e.what();
    }
    out.record(error.empty(), std::string(name) + " build: " + error);
    expected[k] = {g.num_edges(), fingerprint(g)};
  });
  return expected;
}

/// One parallel emission of every chunk into a summing sink, split over
/// the build pool the way build_from_chunks splits its passes. Returns the
/// sum so the emission cannot be optimised away.
template <typename Source>
u64 emit_pass(const Source& source) {
  std::vector<u64> sums(source.num_chunks(), 0);
  parallel_for_chunks(build_pool(), source.num_chunks(), build_threads(),
                      [&](u64, u64 begin, u64 end, u32) {
                        for (u64 c = begin; c < end; ++c) {
                          u64 sum = 0;
                          source.emit(c, [&](vidx u, vidx v) {
                            sum += (u64{u} << 32) | v;
                          });
                          sums[c] = sum;
                        }
                      });
  u64 total = 0;
  for (const u64 s : sums) total += s;
  return total;
}

/// One round: a streamed build per family, each timed alone with the peak
/// RSS restarted around it, then checked outside the timed region.
PassStats build_round(const Sources& sources,
                      const std::vector<Expected>& expected,
                      const std::string& tag, std::vector<u64>& peaks,
                      Spans& spans, Outcome& out) {
  PassStats pass;
  for_each_family(sources, [&](usize k, const char* name, const auto& src) {
    restart_peak_rss();
    const u64 start = monotonic_ns();
    const graph::Csr g = graph::build_from_chunks(src);
    const u64 end = monotonic_ns();
    peaks[k] = peak_rss_bytes();
    spans.add(std::string("graph.stream_build.") + name, tag, start, end);
    pass.add(ms_between(start, end), k);
    pass.seconds += static_cast<double>(end - start) / 1e9;
    pass.peak_rss = std::max(pass.peak_rss, peaks[k]);
    out.record(g.num_edges() == expected[k].arcs &&
                   fingerprint(g) == expected[k].fingerprint,
               tag + "." + name + " build differs from the validated one");
  });
  return pass;
}

}  // namespace

Outcome ingest_huge(const Options& opt) {
  Outcome out;
  const u32 shrink = opt.smoke ? kSmokeShrink : kShrink;
  const Sources sources = make_sources(opt.seed, shrink);
  const std::vector<Expected> expected = expected_builds(sources, out);

  // Set-up: one build per family at 1/64 of the size, so the build pool
  // and allocator are warm before timing.
  std::vector<u64> peaks(kFamilies);
  Spans untraced(false);
  const Sources small = make_sources(opt.seed, shrink + 6);
  const std::vector<Expected> small_expected = expected_builds(small, out);
  timed_setup(opt, out, [&] {
    build_round(small, small_expected, "warm", peaks, untraced, out);
  });

  std::vector<double> rates;
  const usize rounds =
      repeat_for(opt.seconds, opt.smoke ? 1 : 3, [&](usize k) {
        const PassStats r = build_round(sources, expected,
                                        "r" + std::to_string(k), peaks,
                                        untraced, out);
        add_end_to_end(r, out);
        rates.push_back(r.rate());
      });
  out.info.set("rounds", static_cast<u64>(rounds));
  out.info.set("vertex_shrink_log2", shrink);
  json::Value arcs = json::Value::object();
  for_each_family(sources, [&](usize k, const char* name, const auto&) {
    arcs.set(name, expected[k].arcs);
  });
  out.info.set("arcs", std::move(arcs));

  if (opt.trace) {
    Spans spans(true);
    const PassStats r =
        build_round(sources, expected, "t", peaks, spans, out);
    json::Value sums = json::Value::object();
    for_each_family(sources, [&](usize k, const char* name, const auto& src) {
      const u64 start = monotonic_ns();
      sums.set(name, std::to_string(emit_pass(src)));
      const u64 end = monotonic_ns();
      spans.add(std::string("gen.emit_pass.") + name, "t", start, end);
      // Derived: a build replays the stream twice (histogram + scatter).
      out.add(std::string("graph.assembly_ms.") + name,
              r.latency_ms[k] - 2.0 * ms_between(start, end));
      out.add(std::string("graph.stream_peak_mib.") + name, mib(peaks[k]));
    });
    out.info.set("emit_pass_sums", std::move(sums));
    add_layer_times(spans, out);
    out.add("trace.overhead_pct", overhead_pct(rates, r.rate()));

    const u32 threads = build_threads();
    set_build_threads(1);
    Timer single;
    const graph::Csr serial = graph::build_from_chunks(sources.uniform);
    const double single_ms = single.milliseconds();
    set_build_threads(threads);
    out.record(fingerprint(serial) == expected[0].fingerprint,
               "uniform build at one thread differs from the validated one");
    out.add("gen.build_speedup_4t", single_ms / r.latency_ms[0]);

    restart_peak_rss();
    Timer materialized;
    const graph::Csr m = graph::build_materialized(sources.rmat);
    out.add("graph.materialized_build_ms.rmat", materialized.milliseconds());
    out.add("graph.materialized_peak_mib.rmat", mib(peak_rss_bytes()));
    out.record(fingerprint(m) == expected[1].fingerprint,
               "materialized rmat build differs from the streamed one");
    spans.append_chrome(out.trace_events);
  }
  return out;
}

}  // namespace eclp::e2e
