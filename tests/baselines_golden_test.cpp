// Golden modeled results of the three baselines.
//
// Pins label_prop_cc, luby_mis and fw_bw_scc on fixed generated inputs:
// modeled cycles, launch count, every atomic-outcome count, LLC hits and
// misses, each baseline's own counters (rounds; FW-BW's BFS launches, trim
// rounds and pivots) and a checksum of the result, at 1 and 7 sim-threads
// with the modeled LLC off and on. A change to how the baselines launch
// their kernels cannot shift any of these unnoticed.
//
// Regenerate the golden file after an *intentional* modeling change:
//   ECLP_UPDATE_GOLDEN=1 ./eclp_tests --gtest_filter='BaselinesGolden.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/baselines/fw_bw_scc.hpp"
#include "algos/baselines/label_prop_cc.hpp"
#include "algos/baselines/luby_mis.hpp"
#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "sim/device.hpp"
#include "support/pool.hpp"

namespace eclp::algos::baselines {
namespace {

/// FNV-1a over each value's eight little-endian bytes.
template <typename T, typename A>
u64 checksum(const std::vector<T, A>& values) {
  u64 hash = 0xcbf29ce484222325ULL;
  for (const T& v : values) {
    const u64 x = static_cast<u64>(v);
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Run `body(dev, os)` on a fresh device with `workers` host threads and
/// the LLC `llc`; returns "<algo> workers=W llc=L <body fields> <device
/// fields>".
template <typename Body>
std::string run_line(const char* algo, u32 workers, bool llc, Body&& body) {
  Pool pool(workers);
  sim::CostModel cost;
  cost.cache.enabled = llc;
  sim::Device dev(cost);
  dev.set_pool(workers > 1 ? &pool : nullptr);
  std::ostringstream os;
  os << algo << " workers=" << workers << " llc=" << (llc ? 1 : 0);
  body(dev, os);
  os << " cycles=" << dev.total_cycles()
     << " launches=" << dev.kernel_launches();
  for (usize o = 0; o < static_cast<usize>(sim::AtomicOutcome::kCount_); ++o) {
    os << " atomic" << o << '='
       << dev.atomic_stats().count(static_cast<sim::AtomicOutcome>(o));
  }
  os << " llc_hits=" << dev.llc_hits() << " llc_misses=" << dev.llc_misses();
  return os.str();
}

std::vector<std::string> collect() {
  const auto g_lp = gen::road_network(40, 0.2, 3);
  const auto g_luby = gen::uniform_random(3000, 12000, 11);
  const auto g_fwbw = gen::cold_flow(48, 3);
  std::vector<std::string> lines;
  for (const u32 workers : {1u, 7u}) {
    for (const bool llc : {false, true}) {
      lines.push_back(run_line("label_prop_cc", workers, llc,
                               [&](sim::Device& dev, std::ostream& os) {
        const auto res = label_prop_cc(dev, g_lp);
        os << " result=" << checksum(res.labels) << " rounds=" << res.rounds
           << " label_updates=" << res.label_updates
           << " modeled_cycles=" << res.modeled_cycles;
      }));
      lines.push_back(run_line("luby_mis", workers, llc,
                               [&](sim::Device& dev, std::ostream& os) {
        const auto res = luby_mis(dev, g_luby, 7);
        os << " result=" << checksum(res.status) << " rounds=" << res.rounds
           << " set_size=" << res.set_size
           << " modeled_cycles=" << res.modeled_cycles;
      }));
      lines.push_back(run_line("fw_bw_scc", workers, llc,
                               [&](sim::Device& dev, std::ostream& os) {
        const auto res = fw_bw_scc(dev, g_fwbw);
        os << " result=" << checksum(res.scc_id)
           << " num_sccs=" << res.num_sccs << " pivots=" << res.pivots
           << " trim_rounds=" << res.trim_rounds
           << " bfs_launches=" << res.bfs_launches
           << " modeled_cycles=" << res.modeled_cycles;
      }));
    }
  }
  return lines;
}

std::string golden_path() {
  return std::string(ECLP_GOLDEN_DIR) + "/baselines_modeled.txt";
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

TEST(BaselinesGolden, ModeledValuesPinned) {
  const auto lines = collect();

  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path());
    ASSERT_TRUE(os) << "cannot write " << golden_path();
    os << "# Golden modeled results of label_prop_cc, luby_mis and fw_bw_scc\n"
          "# (1 and 7 sim-threads x modeled LLC off/on).\n"
          "# Regenerate: ECLP_UPDATE_GOLDEN=1 ./eclp_tests "
          "--gtest_filter='BaselinesGolden.*'\n";
    for (const auto& line : lines) os << line << '\n';
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const auto golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path()
      << " — regenerate with ECLP_UPDATE_GOLDEN=1";
  EXPECT_EQ(lines, golden)
      << "baseline modeled results drifted from " << golden_path()
      << "; if the modeling change is intentional, regenerate with "
         "ECLP_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace eclp::algos::baselines
