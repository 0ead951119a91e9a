#include "harness/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "graph/cache.hpp"
#include "sim/pool.hpp"
#include "support/json.hpp"
#include "support/parallel_for.hpp"
#include "support/stats.hpp"

namespace eclp::harness {

namespace {

/// Render a table cell as a JSON value: a cell whose text, thousands
/// separators stripped, is an RFC 8259 number token comes back out as a
/// number, everything else (signed deltas, "nan", units) as a string.
std::string json_cell(const std::string& cell) {
  std::string stripped;
  for (const char c : cell) {
    if (c != ',') stripped += c;
  }
  if (json::is_number_token(stripped)) {
    return json::format_number(std::strtod(stripped.c_str(), nullptr));
  }
  return '"' + json::escape(cell) + '"';
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Rewrite ctx.json_path from the tables collected so far. The whole
/// document is regenerated on every emit so a bench that exits between
/// tables still leaves a valid artifact behind.
void write_json(const BenchContext& ctx) {
  std::ofstream os(ctx.json_path);
  if (!os) {
    std::cerr << "warning: cannot write " << ctx.json_path << '\n';
    return;
  }
  os << "{\n  \"bench\": \"" << json::escape(ctx.bench_name) << "\",\n"
     << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << json::escape(compiler()) << '"'
     << ", \"build_type\": \"" << ECLP_BUILD_TYPE << '"'
     << ", \"eclp_hardened\": " << (ECLP_HARDENED != 0 ? "true" : "false")
     << ", \"sim_threads\": " << sim::sim_threads()
     << ", \"build_threads\": " << build_threads()
     << ", \"scale\": \"" << gen::scale_name(ctx.scale) << '"'
     << ", \"runs\": " << ctx.runs << "},\n"
     << "  \"tables\": [";
  bool first_table = true;
  for (const auto& [id, table] : ctx.json_tables) {
    os << (first_table ? "\n" : ",\n");
    first_table = false;
    os << "    {\n      \"id\": \"" << json::escape(id) << "\",\n"
       << "      \"title\": \"" << json::escape(table.title()) << "\",\n"
       << "      \"rows\": [";
    for (usize r = 0; r < table.rows(); ++r) {
      os << (r == 0 ? "\n" : ",\n") << "        {";
      const auto& row = table.row(r);
      for (usize c = 0; c < table.cols(); ++c) {
        os << (c == 0 ? "" : ", ") << '"' << json::escape(table.header()[c])
           << "\": " << json_cell(row[c]);
      }
      os << '}';
    }
    os << "\n      ]\n    }";
  }
  os << "\n  ]\n}\n";
}

}  // namespace

BenchContext parse(int argc, const char* const* argv,
                   const std::string& description, Cli cli) {
  BenchContext ctx;
  ctx.cli = std::move(cli);
  ctx.bench_name =
      std::filesystem::path(argc > 0 ? argv[0] : "bench").filename().string();
  ctx.cli.add_option("scale",
                     "input scale: tiny|small|default|huge (huge exists "
                     "only for streamed entries, see docs/INGEST.md)",
                     "small");
  ctx.cli.add_option("out", "directory for CSV copies", "bench_results");
  ctx.cli.add_option("runs", "repetitions for median measurements", "3");
  ctx.cli.add_option("json",
                     "write a machine-readable JSON copy of every emitted "
                     "table to this path (e.g. BENCH_<name>.json)",
                     "");
  ctx.cli.add_option("sim-threads",
                     "host worker threads for block-parallel simulation "
                     "(0 = one per hardware thread; overrides "
                     "ECLP_SIM_THREADS)",
                     "");
  ctx.cli.add_option("profile",
                     "write a profiling-session artifact (eclp.profile JSON "
                     "plus a .trace.json Perfetto trace) to this path; "
                     "overrides ECLP_PROFILE",
                     "");
  ctx.cli.add_option("build-threads",
                     "host threads for parallel graph ingest (0 = one per "
                     "hardware thread; overrides ECLP_BUILD_THREADS)",
                     "");
  ctx.cli.add_option("graph-cache",
                     "content-addressed .eclg cache directory — repeat runs "
                     "skip graph generation/parsing/build; overrides "
                     "ECLP_GRAPH_CACHE",
                     "");
  ctx.cli.add_option("reorder",
                     "vertex reordering applied to every input: natural, "
                     "random[:SEED], bfs, degree, hub, hubcluster, "
                     "gorder[:WINDOW]",
                     "natural");
  ctx.cli.add_option("llc",
                     "modeled last-level cache: off (default), on, or "
                     "LINE:WAYS:SETS (e.g. 64:8:64)",
                     "off");
  ctx.cli.add_flag("help", "show usage");
  ctx.cli.parse(argc, argv);
  if (ctx.cli.get_flag("help")) {
    std::cout << description << "\n\n" << ctx.cli.usage(argv[0]);
    std::exit(0);
  }
  ctx.scale = gen::parse_scale(ctx.cli.get("scale"));
  ctx.out_dir = ctx.cli.get("out");
  ctx.json_path = ctx.cli.get("json");
  ctx.runs = static_cast<int>(ctx.cli.get_int("runs"));
  ECLP_CHECK(ctx.runs >= 1);
  if (!ctx.cli.get("sim-threads").empty()) {
    sim::set_sim_threads(ctx.cli.get_u32("sim-threads"));
  }
  if (!ctx.cli.get("build-threads").empty()) {
    set_build_threads(ctx.cli.get_u32("build-threads"));
  }
  if (!ctx.cli.get("graph-cache").empty()) {
    graph::set_cache_dir(ctx.cli.get("graph-cache"));
  }
  ctx.reorder_spec = graph::ReorderSpec::parse(ctx.cli.get("reorder"));
  ctx.llc = sim::parse_cache_config(ctx.cli.get("llc"));
  ctx.profile_path = ctx.cli.get("profile");
  if (ctx.profile_path.empty()) {
    // Mirror ECLP_SIM_THREADS: the environment configures what the flag
    // configures, so wrappers (ctest labels, CI scripts) need no argv edits.
    const char* env = std::getenv("ECLP_PROFILE");
    if (env != nullptr) ctx.profile_path = env;
  }
  std::cout << description << "  [scale=" << ctx.cli.get("scale")
            << ", runs=" << ctx.runs << "]\n\n";
  return ctx;
}

void emit(const BenchContext& ctx, const std::string& experiment_id,
          const Table& table) {
  std::cout << table.to_text() << '\n';
  emit_raw(ctx, experiment_id + ".csv", table.to_csv());
  if (!ctx.json_path.empty()) {
    ctx.json_tables.emplace_back(experiment_id, table);
    write_json(ctx);
  }
}

void emit_raw(const BenchContext& ctx, const std::string& file_name,
              const std::string& contents) {
  std::error_code ec;
  std::filesystem::create_directories(ctx.out_dir, ec);
  if (ec) {
    std::cerr << "warning: cannot create " << ctx.out_dir << ": "
              << ec.message() << '\n';
    return;
  }
  const auto path = std::filesystem::path(ctx.out_dir) / file_name;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  os << contents;
}

Spread spread_of(std::vector<double> xs) {
  ECLP_CHECK(!xs.empty());
  std::sort(xs.begin(), xs.end());
  return {xs[xs.size() / 2], xs.front(), xs.back()};
}

void add_spread(std::vector<std::string>& row, const Spread& s, int digits) {
  row.push_back(fmt::fixed(s.median, digits));
  row.push_back(fmt::fixed(s.min, digits));
  row.push_back(fmt::fixed(s.max, digits));
}

void report_correlation(const std::string& label,
                        std::span<const double> xs,
                        std::span<const double> ys) {
  std::printf("correlation  %-52s r = %+.2f\n", label.c_str(),
              stats::pearson(xs, ys));
}

sim::Device make_device(u64 seed, sim::ScheduleMode mode) {
  return sim::Device(sim::CostModel{}, seed, mode);
}

sim::Device make_device(const BenchContext& ctx, u64 seed,
                        sim::ScheduleMode mode) {
  sim::CostModel cost;
  cost.cache = ctx.llc;
  return sim::Device(cost, seed, mode);
}

graph::Csr reorder(const BenchContext& ctx, const graph::Csr& g) {
  return graph::apply_reorder(g, ctx.reorder_spec);
}

std::unique_ptr<profile::Session> maybe_session(
    const BenchContext& ctx, sim::Device& dev,
    profile::CounterRegistry* registry) {
  if (ctx.profile_path.empty()) return nullptr;
  auto session = std::make_unique<profile::Session>(dev, registry);
  session->set_meta("bench", ctx.bench_name);
  session->set_output(ctx.profile_path);
  return session;
}

}  // namespace eclp::harness
