// Ingest-pipeline benchmark: CSR assembly at 1 vs. N build threads,
// chunked text parsing, and the content-addressed graph cache
// (docs/INGEST.md).
//
// Six tables:
//   1. build_1_vs_n_threads — Builder::build() on the largest suite
//      inputs' edge lists, the one assembly pipeline at 1 build thread
//      vs. N (set_build_threads), with a byte-identity check between the
//      two outputs; every median sits next to its fastest and slowest run;
//   2. build_worker_attribution — per-worker busy time / task counts from
//      the ingest pool while the N-thread build runs (on a single-core
//      host, wall-clock speedup is unavailable, so this is the evidence
//      that the pipeline actually fans out);
//   3. parse_serial_vs_parallel — chunked Matrix Market / edge-list /
//      DIMACS parsing at 1 vs. N ingest threads, with the same spread;
//   4. cache_cold_vs_warm — cold generate+build vs. warm cache hit for the
//      same inputs, with the speedup factor (target: >= 5x);
//   5. build_peak_rss — materialized (stage the stream into a Builder,
//      then the same pipeline) vs. streamed (build_from_chunks straight
//      from the generator, no edge list) peak RSS for the chunked
//      generator streams; above tiny scale these rows are the scale=huge
//      suite parameterizations (~10^8 arcs) and the streamed peak must
//      stay under 2x the final CSR bytes;
//   6. gen_throughput_scaling — streamed generation+build throughput
//      (million edges per second) across ingest thread counts.
// Every table repeats each measurement --runs times and prints its median
// next to the fastest (or smallest) and slowest (or largest) run.
#include <filesystem>
#include <sstream>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "gen/stream.hpp"
#include "gen/suite.hpp"
#include "graph/builder.hpp"
#include "graph/cache.hpp"
#include "graph/dimacs.hpp"
#include "graph/io.hpp"
#include "graph/stream_build.hpp"
#include "graph/transforms.hpp"
#include "harness/harness.hpp"
#include "support/parallel_for.hpp"
#include "support/rss.hpp"
#include "support/timer.hpp"

using namespace eclp;

namespace {

/// Inputs spanning the suite's structural classes; big enough that the
/// build cost dominates the measurement.
const char* const kInputs[] = {"europe_osm", "r4-2e23.sym",
                               "kron_g500-logn21", "soc-LiveJournal1",
                               "2d-2e20.sym"};

std::string bytes_of(const graph::Csr& g) {
  std::stringstream ss;
  graph::write_binary(g, ss);
  return std::move(ss).str();
}

using harness::add_spread;
using harness::Spread;
using harness::spread_of;

/// Wall time of repeated fn() calls, in milliseconds: the median and the
/// fastest and slowest run.
template <typename Fn>
Spread median_ms(int runs, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < runs; ++r) {
    Timer t;
    fn();
    ms.push_back(t.milliseconds());
  }
  return spread_of(std::move(ms));
}

/// Extract the raw edge list (and vertex count) a suite input's CSR
/// represents, so the bench can re-run just the Builder on it.
std::pair<vidx, std::vector<graph::Edge>> edges_of(const graph::Csr& g) {
  std::vector<graph::Edge> edges;
  edges.reserve(g.num_edges());
  for (vidx v = 0; v < g.num_vertices(); ++v) {
    for (eidx e = g.edge_begin(v); e < g.edge_end(v); ++e) {
      // Undirected CSRs store both arcs; keep u <= v so the rebuild (which
      // mirrors) reproduces the same graph.
      const vidx u = g.edge_target(e);
      if (!g.directed() && u < v) continue;
      edges.push_back({v, u, g.weighted() ? g.edge_weight(e) : 0});
    }
  }
  return {g.num_vertices(), std::move(edges)};
}

/// Bytes of the finished CSR arrays (offsets + targets + weights).
u64 csr_bytes(const graph::Csr& g) {
  u64 b = (static_cast<u64>(g.num_vertices()) + 1 + g.num_edges()) * 4;
  if (g.weighted()) b += static_cast<u64>(g.num_edges()) * 4;
  return b;
}

struct PeakSample {
  graph::Csr g;
  double ms = 0;
  u64 peak_delta = 0;  ///< peak RSS above the pre-call RSS; 0 = unknown
};

/// Run fn() with the RSS watermark reset around it (support/rss.hpp).
/// malloc_trim first, so pages freed by a previous arm are returned to
/// the kernel instead of silently absorbing this arm's allocations.
template <typename Fn>
PeakSample measure_peak(Fn&& fn) {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  const bool windowed = reset_peak_rss();
  const u64 before = current_rss_bytes();
  PeakSample s;
  Timer t;
  s.g = fn();
  s.ms = t.milliseconds();
  const u64 peak = peak_rss_bytes();
  if (windowed && peak > before) s.peak_delta = peak - before;
  return s;
}

/// One build_peak_rss row: both assembly paths over the same chunk
/// source (type-erased; the source is tiny, copying it is free).
struct RssRow {
  std::string name;
  u64 emitted;  ///< canonical-sequence edge count (pre-mirror/dedupe)
  std::function<graph::Csr()> materialized;
  std::function<graph::Csr()> streamed;
};

template <typename Source>
RssRow rss_row(std::string name, Source source) {
  return {std::move(name), source.estimated_edges(),
          [source] { return graph::build_materialized(source); },
          [source] { return graph::build_from_chunks(source); }};
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = harness::parse(
      argc, argv,
      "Ingest pipeline: parallel CSR build, chunked parsing, graph cache");
  const u32 threads = build_threads();

  // --- 1+2: 1 vs N build threads, with worker attribution -----------------
  {
    // On a single-core host build_threads() is 1 and the pool would be
    // skipped entirely; force a multi-worker pool so the fanned-out
    // pipeline is what gets measured. Wall-clock speedup on such a host is
    // unavailable — the attribution table is the evidence the work
    // actually fans out across workers.
    const u32 fan_threads = threads > 1 ? threads : 7;
    Table t("CSR assembly: 1 vs. " + std::to_string(fan_threads) +
            " build threads");
    t.set_header({"Graph", "Edges", "1-thread ms", "1-thread min",
                  "1-thread max", "N-thread ms", "N-thread min",
                  "N-thread max", "speedup", "identical"});
    Table w("Parallel build: per-worker attribution (" +
            std::to_string(fan_threads) + " build threads)");
    w.set_header({"Graph", "workers used", "tasks", "busy ms total",
                  "max worker share"});
    for (const char* name : kInputs) {
      const auto g = gen::find_input(name).make(ctx.scale);
      const auto [n, edges] = edges_of(g);
      graph::BuildOptions opt;
      opt.directed = g.directed();
      opt.weighted = g.weighted();

      set_build_threads(1);  // the pipeline runs inline on the caller
      graph::Csr one_g;
      const Spread one = median_ms(
          ctx.runs, [&] { one_g = graph::from_edges(n, edges, opt); });

      set_build_threads(fan_threads);
      Pool* pool = build_pool();
      ECLP_CHECK(pool != nullptr);
      ECLP_CHECK(pool->claim_sampling());
      graph::Csr n_g;
      const Spread many = median_ms(
          ctx.runs, [&] { n_g = graph::from_edges(n, edges, opt); });
      pool->release_sampling();

      const bool identical = bytes_of(one_g) == bytes_of(n_g);
      t.add_row({name, std::to_string(edges.size()),
                 fmt::fixed(one.median, 2), fmt::fixed(one.min, 2),
                 fmt::fixed(one.max, 2), fmt::fixed(many.median, 2),
                 fmt::fixed(many.min, 2), fmt::fixed(many.max, 2),
                 fmt::fixed(one.median / many.median, 2),
                 identical ? "yes" : "NO"});
      ECLP_CHECK_MSG(identical, "N-thread build diverged from 1 thread");

      u64 tasks = 0, busy_ns = 0, max_busy = 0;
      u32 used = 0;
      for (const auto& s : pool->worker_samples()) {
        if (s.tasks == 0 && s.busy_ns == 0) continue;
        ++used;
        tasks += s.tasks;
        busy_ns += s.busy_ns;
        max_busy = std::max(max_busy, s.busy_ns);
      }
      w.add_row({name, std::to_string(used), std::to_string(tasks),
                 fmt::fixed(static_cast<double>(busy_ns) / 1e6, 2),
                 busy_ns == 0
                     ? "-"
                     : fmt::fixed(100.0 * static_cast<double>(max_busy) /
                                      static_cast<double>(busy_ns),
                                  1) + "%"});
      set_build_threads(threads);
    }
    harness::emit(ctx, "build_1_vs_n_threads", t);
    harness::emit(ctx, "build_worker_attribution", w);
  }

  // --- 3: chunked parsing at 1 vs N threads ---------------------------------
  {
    const u32 fan_threads = threads > 1 ? threads : 7;
    Table t("Text parsing: 1 thread vs. " + std::to_string(fan_threads) +
            " threads");
    t.set_header({"Format", "bytes", "1-thread ms", "1-thread min",
                  "1-thread max", "N-thread ms", "N-thread min",
                  "N-thread max", "speedup"});
    const auto g = gen::find_input("soc-LiveJournal1").make(ctx.scale);
    const auto weighted = graph::with_random_weights(g, 7);
    struct Fmt {
      const char* name;
      std::string text;
      std::function<graph::Csr()> parse;
    };
    std::vector<Fmt> fmts;
    {
      std::stringstream ss;
      graph::write_matrix_market(g, ss);
      std::string text = ss.str();
      fmts.push_back({".mtx", text, [text] {
                        return graph::parse_matrix_market(text);
                      }});
    }
    {
      std::stringstream ss;
      graph::write_edge_list(g, ss);
      std::string text = ss.str();
      const vidx n = g.num_vertices();
      fmts.push_back({".el", text, [text, n] {
                        return graph::parse_edge_list(text, false, n);
                      }});
    }
    {
      std::stringstream ss;
      graph::write_dimacs_sp(weighted, ss);
      std::string text = ss.str();
      fmts.push_back({".gr", text, [text] {
                        return graph::parse_dimacs_sp(text, true);
                      }});
    }
    for (const auto& f : fmts) {
      set_build_threads(1);
      const Spread one = median_ms(ctx.runs, [&] { f.parse(); });
      set_build_threads(fan_threads);
      const Spread many = median_ms(ctx.runs, [&] { f.parse(); });
      t.add_row({f.name, std::to_string(f.text.size()),
                 fmt::fixed(one.median, 2), fmt::fixed(one.min, 2),
                 fmt::fixed(one.max, 2), fmt::fixed(many.median, 2),
                 fmt::fixed(many.min, 2), fmt::fixed(many.max, 2),
                 fmt::fixed(one.median / many.median, 2)});
    }
    set_build_threads(threads);
    harness::emit(ctx, "parse_serial_vs_parallel", t);
  }

  // --- 4: cache cold vs warm -----------------------------------------------
  {
    Table t("Graph cache: cold generate+build vs. warm hit");
    t.set_header({"Graph", "cold ms", "warm ms", "speedup", "hits"});
    const auto dir = std::filesystem::path(ctx.out_dir) / "graph_cache";
    std::filesystem::remove_all(dir);
    graph::set_cache_dir(dir.string());
    for (const char* name : kInputs) {
      const auto& spec = gen::find_input(name);
      graph::reset_cache_stats();
      Timer cold_t;
      spec.make(ctx.scale);
      const double cold_ms = cold_t.milliseconds();
      const double warm_ms =
          median_ms(ctx.runs, [&] { spec.make(ctx.scale); }).median;
      t.add_row({name, fmt::fixed(cold_ms, 2), fmt::fixed(warm_ms, 2),
                 fmt::fixed(cold_ms / warm_ms, 1),
                 std::to_string(graph::cache_stats().hits)});
    }
    graph::set_cache_dir("");
    harness::emit(ctx, "cache_cold_vs_warm", t);
  }

  // --- 5: peak RSS, materialized vs streamed --------------------------------
  {
    const bool huge = ctx.scale != gen::Scale::kTiny;
    // Above tiny, measure the actual scale=huge suite parameterizations
    // (~10^8 arcs); under bench-smoke keep the rows small and fast.
    std::vector<RssRow> rows;
    if (huge) {
      const vidx un = vidx{1} << 24;
      rows.push_back(rss_row(
          "r4-2e23.sym (huge)",
          gen::UniformRandomStream(un, static_cast<u64>(un) * 4, 1)));
      rows.push_back(rss_row(
          "rmat22.sym (huge)",
          gen::RmatStream(22, u64{8} << 22, 0.45, 0.22, 0.22, 2)));
      rows.push_back(rss_row(
          "kron_g500-logn21 (huge)",
          gen::RmatStream(21, u64{22} << 21, 0.57, 0.19, 0.19, 3)));
      rows.push_back(rss_row(
          "as-skitter (huge)",
          gen::PreferentialAttachmentStream(vidx{1} << 21, 7, 4)));
    } else {
      rows.push_back(rss_row(
          "uniform (tiny)", gen::UniformRandomStream(1 << 14, 1 << 16, 1)));
      rows.push_back(rss_row(
          "rmat (tiny)",
          gen::RmatStream(14, 1 << 16, 0.45, 0.22, 0.22, 2)));
      rows.push_back(rss_row(
          "pa (tiny)",
          gen::PreferentialAttachmentStream(1 << 14, 7, 4)));
    }
    const u32 fan_threads = threads > 1 ? threads : 7;
    set_build_threads(fan_threads);
    Table t("Peak build memory: materialized edge list vs. chunked stream (" +
            std::to_string(fan_threads) + " ingest threads)");
    t.set_header({"Graph", "emitted", "arcs", "csr MiB", "mat peak MiB",
                  "mat peak min", "mat peak max", "mat ms", "mat min",
                  "mat max", "stream peak MiB", "stream peak min",
                  "stream peak max", "stream ms", "stream min", "stream max",
                  "stream peak/csr", "identical"});
    constexpr double kMiB = 1024.0 * 1024.0;
    for (const auto& row : rows) {
      // Each run builds both arms, one at a time; only the first run's
      // graphs are compared and counted, so no run holds more than the
      // single-run bench did.
      std::vector<double> mat_ms, mat_peak, stream_ms, stream_peak;
      bool peaks_known = true;
      u64 arcs = 0;
      double csr_mib = 0;
      for (int r = 0; r < ctx.runs; ++r) {
        const auto mat = measure_peak(row.materialized);
        const auto stream = measure_peak(row.streamed);
        mat_ms.push_back(mat.ms);
        stream_ms.push_back(stream.ms);
        mat_peak.push_back(static_cast<double>(mat.peak_delta) / kMiB);
        stream_peak.push_back(static_cast<double>(stream.peak_delta) / kMiB);
        peaks_known = peaks_known && mat.peak_delta != 0 &&
                      stream.peak_delta != 0;
        if (r == 0) {
          ECLP_CHECK_MSG(bytes_of(mat.g) == bytes_of(stream.g),
                         "streamed build diverged from materialized");
          arcs = stream.g.num_edges();
          csr_mib = static_cast<double>(csr_bytes(stream.g)) / kMiB;
        }
      }
      std::vector<std::string> cells = {row.name, std::to_string(row.emitted),
                                        std::to_string(arcs),
                                        fmt::fixed(csr_mib, 1)};
      const auto add_peak = [&](const std::vector<double>& peaks) {
        if (peaks_known) {
          add_spread(cells, spread_of(peaks), 1);
        } else {
          cells.insert(cells.end(), {"-", "-", "-"});
        }
      };
      add_peak(mat_peak);
      add_spread(cells, spread_of(mat_ms), 0);
      add_peak(stream_peak);
      add_spread(cells, spread_of(stream_ms), 0);
      cells.push_back(peaks_known
                          ? fmt::fixed(spread_of(stream_peak).median / csr_mib,
                                       2)
                          : "-");
      cells.push_back("yes");
      t.add_row(cells);
    }
    set_build_threads(threads);
    harness::emit(ctx, "build_peak_rss", t);
  }

  // --- 6: streamed generation throughput across thread counts ---------------
  {
    const bool huge = ctx.scale != gen::Scale::kTiny;
    const vidx un = huge ? (vidx{1} << 24) : (vidx{1} << 14);
    const gen::UniformRandomStream source(un, static_cast<u64>(un) * 4, 1);
    Table t(std::string("Streamed generation throughput: r4-2e23.sym (") +
            (huge ? "huge" : "tiny") + "), chunked two-pass build");
    t.set_header({"threads", "build ms", "build min", "build max",
                  "Medges/s", "Medges/s min", "Medges/s max"});
    // Throughput counts canonical-sequence edges generated (each edge is
    // emitted twice — histogram and scatter pass — but lands once).
    const double medges = static_cast<double>(source.estimated_edges()) / 1e6;
    for (const u32 n_threads : {1u, 2u, 4u, 7u}) {
      set_build_threads(n_threads);
      const Spread ms = median_ms(ctx.runs, [&] {
        ECLP_CHECK(graph::build_from_chunks(source).num_edges() > 0);
      });
      std::vector<std::string> cells = {std::to_string(n_threads)};
      add_spread(cells, ms, 0);
      // The slowest build gives the lowest throughput.
      add_spread(cells,
                 {medges / (ms.median / 1000.0), medges / (ms.max / 1000.0),
                  medges / (ms.min / 1000.0)},
                 2);
      t.add_row(cells);
    }
    set_build_threads(threads);
    harness::emit(ctx, "gen_throughput_scaling", t);
  }

  return 0;
}
