// eclp-metrics — render and gate eclp.metrics telemetry snapshots.
//
//   $ eclp-metrics --check metrics.jsonl
//       validate every snapshot line against the eclp.metrics v1 schema
//   $ eclp-metrics metrics.jsonl
//       render the last snapshot as counter/gauge/histogram tables
//   $ eclp-metrics base.jsonl candidate.jsonl
//       compare the last snapshots; exit 1 when the candidate regresses
//       beyond tolerance (see --counter-tol / --latency-tol)
//
// The gate is serve::diff_metrics (src/serve/telemetry.hpp): the comparison
// rule of eclp-profile-diff over the failure-shaped counters and every
// histogram's p99. Every gated row is printed, in the same listing.
//
// Exit codes: 0 ok, 1 regressions found, 2 usage/IO/validation error.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/telemetry.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace eclp;

namespace {

/// Parse a metrics JSONL file, validating every line; returns the
/// snapshots in file order. Throws CheckFailure on IO/parse/schema errors.
std::vector<json::Value> load_snapshots(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ECLP_CHECK_MSG(static_cast<bool>(in), "cannot open '" << path << "'");
  std::vector<json::Value> snapshots;
  std::string line;
  usize line_no = 0;
  while (std::getline(in, line)) {
    line_no++;
    if (line.empty()) continue;
    json::Value doc;
    try {
      doc = json::Value::parse(line);
      serve::validate_metrics_snapshot(doc);
    } catch (const CheckFailure& e) {
      throw CheckFailure(path + ":" + std::to_string(line_no) + ": " +
                         e.what());
    }
    snapshots.push_back(std::move(doc));
  }
  ECLP_CHECK_MSG(!snapshots.empty(), path << " contains no snapshots");
  return snapshots;
}

void render(const json::Value& snap) {
  std::printf("snapshot seq %llu\n",
              static_cast<unsigned long long>(snap.at("seq").as_u64()));
  Table counters("counters");
  counters.set_header({"name", "value"});
  for (const auto& [name, value] : snap.at("counters").members()) {
    counters.add_row({name, fmt::grouped(value.as_u64())});
  }
  if (counters.rows() > 0) std::printf("%s", counters.to_text().c_str());
  Table gauges("gauges");
  gauges.set_header({"name", "value"});
  for (const auto& [name, value] : snap.at("gauges").members()) {
    gauges.add_row({name, fmt::grouped(value.as_u64())});
  }
  if (gauges.rows() > 0) std::printf("%s", gauges.to_text().c_str());
  Table hists("histograms");
  hists.set_header({"name", "count", "sum", "mean", "p50", "p90", "p99"});
  for (const auto& [name, h] : snap.at("histograms").members()) {
    const u64 count = h.at("count").as_u64();
    const u64 sum = h.at("sum").as_u64();
    const double mean =
        count == 0 ? 0.0
                   : static_cast<double>(sum) / static_cast<double>(count);
    hists.add_row({name, fmt::grouped(count), fmt::grouped(sum),
                   fmt::fixed(mean, 1), fmt::grouped(h.at("p50").as_u64()),
                   fmt::grouped(h.at("p90").as_u64()),
                   fmt::grouped(h.at("p99").as_u64())});
  }
  if (hists.rows() > 0) std::printf("%s", hists.to_text().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("check",
                 "validate every snapshot in this JSONL file and exit", "");
  cli.add_option("counter-tol",
                 "allowed growth of gated failure/miss counters, percent",
                 "0");
  cli.add_option("latency-tol",
                 "allowed growth of histogram p99s, percent", "10");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::printf("usage: eclp-metrics <metrics.jsonl>\n"
                "       eclp-metrics <base.jsonl> <candidate.jsonl>\n"
                "       eclp-metrics --check <metrics.jsonl>\n\n%s",
                cli.usage("eclp-metrics").c_str());
    return 0;
  }

  try {
    if (!cli.get("check").empty()) {
      const auto snapshots = load_snapshots(cli.get("check"));
      std::printf("%s: %zu valid eclp.metrics snapshot%s\n",
                  cli.get("check").c_str(), snapshots.size(),
                  snapshots.size() == 1 ? "" : "s");
      return 0;
    }

    const auto& files = cli.positional();
    if (files.size() == 1) {
      render(load_snapshots(files[0]).back());
      return 0;
    }
    if (files.size() != 2) {
      std::fprintf(stderr,
                   "usage: eclp-metrics <metrics.jsonl> | <base.jsonl> "
                   "<cand.jsonl> | --check <metrics.jsonl>\n");
      return 2;
    }
    const profile::DiffReport report = serve::diff_metrics(
        load_snapshots(files[0]).back(), load_snapshots(files[1]).back(),
        cli.get_double("counter-tol"), cli.get_double("latency-tol"));
    std::printf("%s", report.to_string(true).c_str());
    return report.regressions() == 0 ? 0 : 1;
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "eclp-metrics: %s\n", e.what());
    return 2;
  }
}
