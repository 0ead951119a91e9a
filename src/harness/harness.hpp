// Shared plumbing for the bench binaries (one per paper table/figure).
//
// Every bench accepts:
//   --scale=tiny|small|default   input size (default: small — the trends of
//                                every table/figure already appear there;
//                                "default" strengthens them at ~10x cost)
//   --out=<dir>                  where CSV copies of each table are written
//                                (default: bench_results)
//   --runs=<k>                   repetitions for median-of-k measurements
//   --json=<path>                machine-readable copy of every emitted
//                                table (one JSON document; numbers parsed
//                                back out of the formatted cells) after a
//                                host block (cores, compiler, build type,
//                                thread counts, scale, runs) — the
//                                BENCH_<name>.json perf-trajectory artifacts
//   --build-threads=<n>          ingest parallelism (ECLP_BUILD_THREADS)
//   --graph-cache=<dir>          content-addressed graph cache dir
//                                (ECLP_GRAPH_CACHE) — see docs/INGEST.md
//   --reorder=<spec>             vertex reordering applied to every input
//                                (natural|random[:SEED]|bfs|degree|hub|
//                                hubcluster|gorder[:WINDOW])
//   --llc=<spec>                 modeled last-level cache (off|on|L:W:S) —
//                                see docs/SIMULATOR.md "Modeled LLC"
// and prints the reproduced table plus, where the paper quotes one, the
// corresponding correlation coefficient.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/suite.hpp"
#include "graph/reorder.hpp"
#include "profile/session.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace eclp::harness {

struct BenchContext {
  gen::Scale scale = gen::Scale::kSmall;
  std::string out_dir = "bench_results";
  int runs = 3;
  std::string bench_name;  ///< argv[0] basename, the JSON "bench" field
  std::string json_path;   ///< --json destination; empty = no JSON artifact
  /// --profile destination (or $ECLP_PROFILE); empty = profiling off.
  /// Consumed by maybe_session().
  std::string profile_path;
  /// --reorder: applied by reorder() to every input the bench obtains.
  graph::ReorderSpec reorder_spec;
  /// --llc: modeled-LLC shape baked into every make_device(ctx, ...) call.
  sim::CacheConfig llc;
  Cli cli;
  /// Tables seen by emit(); the JSON artifact is rewritten from this after
  /// every emit, so it is complete whenever the process exits.
  mutable std::vector<std::pair<std::string, Table>> json_tables;
};

/// Parse the standard bench flags (plus any extras already added to `cli`).
BenchContext parse(int argc, const char* const* argv,
                   const std::string& description, Cli cli = {});

/// Print the table to stdout, drop a CSV copy in ctx.out_dir, and — when
/// --json was given — rewrite the JSON artifact with every table emitted so
/// far.
void emit(const BenchContext& ctx, const std::string& experiment_id,
          const Table& table);

/// Write an arbitrary text artifact (e.g. a full per-block CSV series).
void emit_raw(const BenchContext& ctx, const std::string& file_name,
              const std::string& contents);

/// The median of repeated measurements next to the fastest (or smallest)
/// and slowest (or largest) one, so a table can show its spread.
struct Spread {
  double median;
  double min;
  double max;
};

/// Median, min and max of a non-empty sample.
Spread spread_of(std::vector<double> xs);

/// Append a median cell followed by its min and max cells.
void add_spread(std::vector<std::string>& row, const Spread& s, int digits);

/// Print a labelled correlation line (the r values the paper quotes inline).
void report_correlation(const std::string& label,
                        std::span<const double> xs,
                        std::span<const double> ys);

/// A device with the standard cost model; `seed` controls shuffled runs.
sim::Device make_device(u64 seed = 0,
                        sim::ScheduleMode mode =
                            sim::ScheduleMode::kDeterministic);

/// A device honoring the bench's --llc flag (standard cost model
/// otherwise). Benches that sweep orderings use this so modeled hit/miss
/// counters appear without per-bench plumbing.
sim::Device make_device(const BenchContext& ctx, u64 seed = 0,
                        sim::ScheduleMode mode =
                            sim::ScheduleMode::kDeterministic);

/// Apply the bench's --reorder spec to `g` (identity for natural); the
/// relabeled CSR is memoized through the graph cache when one is attached.
graph::Csr reorder(const BenchContext& ctx, const graph::Csr& g);

/// A profiling session attached to `dev` when the bench was invoked with
/// --profile=<path> (or ECLP_PROFILE is set); nullptr otherwise. The
/// session writes its profile + Perfetto artifacts when destroyed, so keep
/// it alive across the run() calls it should cover.
std::unique_ptr<profile::Session> maybe_session(
    const BenchContext& ctx, sim::Device& dev,
    profile::CounterRegistry* registry = nullptr);

}  // namespace eclp::harness
