// Golden ECL-GC coloring shapes.
//
// Pins the modeled numbers of ECL-GC on the tiny `kron_g500-logn21`,
// `soc-LiveJournal1` and `delaunay_n24` suite inputs, with the shortcuts on
// and off (strict Jones-Plassmann), under the deterministic schedule (seed
// 0) and one shuffled seed. Each line records modeled cycles, launches,
// coloring rounds, the color count and a checksum of the coloring, both
// shortcut counters, and the paper's Table 5 runLarge counters (count, mean
// and max of "best color changed" and "not yet possible"). The Kronecker and
// LiveJournal inputs have hubs above the runLarge degree threshold, so these
// lines cover the runLarge kernel and strict JP, which the 2,500-vertex
// uniform graph of modeled_invariance.txt leaves unpinned: a change to how
// the coloring pass walks a vertex's dependencies cannot shift any of them
// unnoticed.
//
// Regenerate the golden file after an *intentional* modeling change:
//   ECLP_UPDATE_GOLDEN=1 ./eclp_tests --gtest_filter='GcShapes.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "algos/gc/ecl_gc.hpp"
#include "gen/suite.hpp"
#include "sim/device.hpp"

namespace eclp {
namespace {

constexpr const char* kInputs[] = {"kron_g500-logn21", "soc-LiveJournal1",
                                   "delaunay_n24"};
// Seed 0 runs the deterministic schedule; the nonzero seed the shuffled one.
constexpr u64 kSeeds[] = {0, 12345};

/// FNV-1a over the little-endian bytes of `colors`.
u64 checksum(const std::vector<u32>& colors) {
  u64 hash = 0xcbf29ce484222325ULL;
  for (const u32 c : colors) {
    for (int i = 0; i < 4; ++i) {
      hash = (hash ^ ((c >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

void summary_fields(std::ostream& os, const char* key,
                    const stats::Summary& s) {
  os << ' ' << key << "=" << s.count << '/' << std::setprecision(17) << s.mean
     << '/' << s.max;
}

std::string shape_line(const std::string& input, const graph::Csr& g,
                       bool shortcuts, u64 seed) {
  sim::Device dev(sim::CostModel{}, seed,
                  seed == 0 ? sim::ScheduleMode::kDeterministic
                            : sim::ScheduleMode::kShuffled);
  algos::gc::Options opt;
  opt.use_shortcuts = shortcuts;
  const auto res = algos::gc::run(dev, g, opt);
  EXPECT_TRUE(algos::gc::verify(g, res.colors)) << input;

  std::ostringstream os;
  os << input << " shortcuts=" << (shortcuts ? 1 : 0) << " seed=" << seed
     << " cycles=" << res.modeled_cycles
     << " launches=" << dev.kernel_launches()
     << " rounds=" << res.host_iterations << " colors=" << res.num_colors
     << " result=" << checksum(res.colors)
     << " shortcut1=" << res.shortcut1_colorings
     << " shortcut2=" << res.shortcut2_removals
     << " large=" << res.run_large.large_vertices;
  summary_fields(os, "best_changed", res.run_large.best_color_changed);
  summary_fields(os, "not_yet_possible", res.run_large.not_yet_possible);
  return os.str();
}

std::vector<std::string> collect() {
  std::vector<std::string> lines;
  for (const char* input : kInputs) {
    const graph::Csr g = gen::find_input(input).make(gen::Scale::kTiny);
    for (const bool shortcuts : {true, false}) {
      for (const u64 seed : kSeeds) {
        lines.push_back(shape_line(input, g, shortcuts, seed));
      }
    }
  }
  return lines;
}

std::string golden_path() {
  return std::string(ECLP_GOLDEN_DIR) + "/gc_shapes.txt";
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

TEST(GcShapes, GoldenValuesPinnedWithAndWithoutShortcuts) {
  const auto lines = collect();

  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path());
    ASSERT_TRUE(os) << "cannot write " << golden_path();
    os << "# Golden ECL-GC modeled results (tiny suite inputs, shortcuts\n"
          "# on/off, deterministic seed 0 and shuffled seed 12345).\n"
          "# Summaries are count/mean/max over the runLarge vertices.\n"
          "# Regenerate: ECLP_UPDATE_GOLDEN=1 ./eclp_tests "
          "--gtest_filter='GcShapes.*'\n";
    for (const auto& line : lines) os << line << '\n';
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const auto golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path()
      << " — regenerate with ECLP_UPDATE_GOLDEN=1";
  EXPECT_EQ(lines, golden)
      << "ECL-GC modeled results drifted from " << golden_path()
      << "; if the modeling change is intentional, regenerate with "
         "ECLP_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace eclp
