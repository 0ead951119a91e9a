// Golden modeled-results invariance test.
//
// Pins the absolute modeled numbers — cycles, launch counts, atomic-outcome
// tallies, algorithm counter totals, and result checksums — for all five
// reproduced ECL codes on fixed generated inputs, under both schedule modes,
// with the modeled LLC off and at two shapes (whose lines add the hit and
// miss counts), and at 1/2/7 sim-threads. The determinism tests prove
// 1-vs-N equality; this test additionally freezes the values themselves, so
// a refactor of the dispatch or cost-charging machinery (e.g. the template
// launch path, batched cost flushes) cannot silently shift any modeled
// quantity.
//
// Regenerate the golden file after an *intentional* modeling change:
//   ECLP_UPDATE_GOLDEN=1 ./eclp_tests --gtest_filter='ModeledInvariance.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/cc/ecl_cc.hpp"
#include "algos/gc/ecl_gc.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "algos/mst/ecl_mst.hpp"
#include "algos/scc/ecl_scc.hpp"
#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "graph/transforms.hpp"
#include "sim/cache.hpp"
#include "sim/device.hpp"
#include "support/pool.hpp"

namespace eclp {
namespace {

constexpr u32 kWorkerCounts[] = {1, 2, 7};
// Seed 0 runs the deterministic schedule; the nonzero seeds exercise the
// shuffled schedule, whose interleaving (and thus every schedule-dependent
// draw) must also survive refactors bit-for-bit.
constexpr u64 kSeeds[] = {0, 12345};
// Modeled-LLC shapes. "off" lines come first and carry no LLC fields; the
// default shape and a page-sized line pin the hit and miss counts too.
const char* const kCacheShapes[] = {"off", "on", "4096:2:8"};

/// FNV-1a over a little-endian byte rendering of integer sequences: a
/// compact, platform-stable checksum of algorithm outputs.
class Checksum {
 public:
  template <typename T, typename A>
  void add(const std::vector<T, A>& values) {
    for (const T& v : values) {
      u64 x = static_cast<u64>(v);
      for (int i = 0; i < 8; ++i) {
        hash_ = (hash_ ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
      }
    }
  }
  void add(u64 v) { add(std::vector<u64>{v}); }
  u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ULL;
};

/// One golden line: "<algo> seed=<s> <key>=<value> ...", deterministic
/// field order, decimal values only.
class Line {
 public:
  Line(const std::string& algo, u64 seed, const sim::CacheConfig& llc) {
    os_ << algo << " seed=" << seed;
    if (llc.enabled) os_ << " llc=" << sim::cache_config_label(llc);
  }
  Line& field(const std::string& key, u64 value) {
    os_ << ' ' << key << '=' << value;
    return *this;
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

void append_device_fields(Line& line, const sim::Device& dev) {
  line.field("cycles", dev.total_cycles());
  line.field("launches", dev.kernel_launches());
  for (usize o = 0; o < static_cast<usize>(sim::AtomicOutcome::kCount_); ++o) {
    line.field("atomic" + std::to_string(o),
               dev.atomic_stats().count(static_cast<sim::AtomicOutcome>(o)));
  }
  if (dev.cost_model().cache.enabled) {
    line.field("llc_hits", dev.llc_hits());
    line.field("llc_misses", dev.llc_misses());
  }
}

/// Run `body(dev)` under `workers` host threads with the modeled LLC shaped
/// by `llc`; returns the golden line.
template <typename Body>
std::string run_line(const std::string& algo, u64 seed,
                     const sim::CacheConfig& llc, u32 workers, Body&& body) {
  Pool pool(workers);
  sim::CostModel cost;
  cost.cache = llc;
  sim::Device dev(cost, seed,
                  seed == 0 ? sim::ScheduleMode::kDeterministic
                            : sim::ScheduleMode::kShuffled);
  dev.set_pool(workers > 1 ? &pool : nullptr);
  Line line(algo, seed, llc);
  body(dev, line);
  append_device_fields(line, dev);
  return line.str();
}

/// Produce every golden line at the given worker count. The line set is
/// identical for all worker counts (that is what the test asserts).
std::vector<std::string> collect(u32 workers) {
  std::vector<std::string> lines;

  const auto g_cc = gen::rmat(11, 16000, 0.45, 0.22, 0.22, 5);
  const auto g_gc = gen::uniform_random(3000, 12000, 9);
  const auto g_mis = gen::uniform_random(3000, 12000, 11);
  const auto g_mst =
      graph::with_random_weights(gen::uniform_random(2500, 10000, 13), 13);
  const auto g_scc = gen::cold_flow(48, 3);

  for (const char* const shape : kCacheShapes) {
    const sim::CacheConfig llc = sim::parse_cache_config(shape);
    for (const u64 seed : kSeeds) {
      lines.push_back(run_line("cc", seed, llc, workers,
                               [&](sim::Device& dev, Line& line) {
        const auto res = algos::cc::run(dev, g_cc);
        Checksum sum;
        sum.add(res.labels);
        line.field("result", sum.value());
        line.field("modeled_cycles", res.modeled_cycles);
        line.field("init_cycles", res.init_cycles);
        line.field("vertices_initialized", res.profile.vertices_initialized);
        line.field("init_neighbors_traversed",
                   res.profile.init_neighbors_traversed);
        line.field("representative_calls", res.profile.representative_calls);
        line.field("hook_attempts", res.profile.hook_attempts);
        line.field("hook_cas_success", res.profile.hook_cas_success);
        line.field("hook_cas_failure", res.profile.hook_cas_failure);
      }));

      lines.push_back(run_line("gc", seed, llc, workers,
                               [&](sim::Device& dev, Line& line) {
        const auto res = algos::gc::run(dev, g_gc);
        Checksum sum;
        sum.add(res.colors);
        line.field("result", sum.value());
        line.field("modeled_cycles", res.modeled_cycles);
        line.field("num_colors", res.num_colors);
        line.field("host_iterations", res.host_iterations);
        line.field("shortcut1_colorings", res.shortcut1_colorings);
        line.field("shortcut2_removals", res.shortcut2_removals);
      }));

      lines.push_back(run_line("mis", seed, llc, workers,
                               [&](sim::Device& dev, Line& line) {
        const auto res = algos::mis::run(dev, g_mis);
        Checksum sum;
        sum.add(res.status);
        line.field("result", sum.value());
        line.field("modeled_cycles", res.modeled_cycles);
        line.field("set_size", res.set_size);
        line.field("iterations_total",
                   static_cast<u64>(res.metrics.iterations.total));
        line.field("finalized_total",
                   static_cast<u64>(res.metrics.vertices_finalized.total));
      }));

      lines.push_back(run_line("mst", seed, llc, workers,
                               [&](sim::Device& dev, Line& line) {
        const auto res = algos::mst::run(dev, g_mst);
        Checksum sum;
        sum.add(res.in_mst);
        line.field("result", sum.value());
        line.field("modeled_cycles", res.modeled_cycles);
        line.field("total_weight", res.total_weight);
        line.field("mst_edges", res.mst_edges);
      }));

      lines.push_back(run_line("scc", seed, llc, workers,
                               [&](sim::Device& dev, Line& line) {
        algos::scc::Options opt;
        opt.record_series = true;
        const auto res = algos::scc::run(dev, g_scc, opt);
        Checksum sum;
        sum.add(res.scc_id);
        line.field("result", sum.value());
        Checksum series_sum;
        const std::string csv = res.series.to_csv();
        series_sum.add(std::vector<u8>(csv.begin(), csv.end()));
        line.field("series", series_sum.value());
        line.field("modeled_cycles", res.modeled_cycles);
        line.field("num_sccs", res.num_sccs);
        line.field("outer_iterations", res.outer_iterations);
        Checksum inner_sum;
        inner_sum.add(res.inner_per_outer);
        line.field("inner_per_outer", inner_sum.value());
      }));
    }
  }
  return lines;
}

std::string golden_path() {
  return std::string(ECLP_GOLDEN_DIR) + "/modeled_invariance.txt";
}

std::vector<std::string> read_golden() {
  std::ifstream is(golden_path());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(ModeledInvariance, GoldenValuesPinnedAcrossSimThreads) {
  const auto base = collect(1);
  for (const u32 workers : kWorkerCounts) {
    if (workers == 1) continue;
    EXPECT_EQ(collect(workers), base) << workers << " workers";
  }

  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path());
    ASSERT_TRUE(os) << "cannot write " << golden_path();
    os << "# Golden modeled results (cycles / atomics / counters / result\n"
          "# checksums) for the five ECL codes on fixed generated inputs.\n"
          "# Regenerate: ECLP_UPDATE_GOLDEN=1 ./eclp_tests "
          "--gtest_filter='ModeledInvariance.*'\n";
    for (const auto& line : base) os << line << '\n';
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const auto golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path()
      << " — regenerate with ECLP_UPDATE_GOLDEN=1";
  EXPECT_EQ(base, golden)
      << "modeled results drifted from " << golden_path()
      << "; if the modeling change is intentional, regenerate with "
         "ECLP_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace eclp
