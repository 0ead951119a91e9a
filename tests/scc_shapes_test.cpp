// Golden ECL-SCC launch shapes.
//
// Pins the modeled numbers of ECL-SCC across the launch geometries its
// propagation kernel maps arcs onto threads with: `threads_per_block`
// {64, 256, 1024} x `edges_per_thread` {1, 3}, with the modeled LLC off and
// on, on the tiny `toroid-hex`, `cold-flow` and `star` meshes and on
// `toroid-hex` relabelled at random (most of its arcs then cross blocks, so
// most readers of a vertex are foreign to its home block; `star`'s hub is
// read by every block). One more line per mesh runs with trimming on. Each
// line records modeled cycles, every atomic-outcome count, the propagation
// launches per outer round, and a checksum of the Figure-1 block series, so
// a change to how scc_propagate sweeps its blocks cannot shift any of them
// unnoticed.
//
// Regenerate the golden file after an *intentional* modeling change:
//   ECLP_UPDATE_GOLDEN=1 ./eclp_tests --gtest_filter='SccShapes.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/scc/ecl_scc.hpp"
#include "gen/suite.hpp"
#include "graph/reorder.hpp"
#include "sim/device.hpp"

namespace eclp {
namespace {

/// Suite meshes, optionally relabelled: "<input>" or "<input>@<reorder>".
constexpr const char* kInputs[] = {"toroid-hex", "cold-flow", "star",
                                   "toroid-hex@random:1"};
constexpr u32 kThreadsPerBlock[] = {64, 256, 1024};
constexpr u32 kEdgesPerThread[] = {1, 3};

/// FNV-1a over the bytes of `s`.
u64 fnv1a(const std::string& s) {
  u64 hash = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    hash = (hash ^ static_cast<u8>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

graph::Csr make_input(const std::string& input) {
  const usize at = input.find('@');
  const graph::Csr g =
      gen::find_input(input.substr(0, at)).make(gen::Scale::kTiny);
  if (at == std::string::npos) return g;
  return graph::apply_reorder(
      g, graph::ReorderSpec::parse(input.substr(at + 1)));
}

std::string shape_line(const std::string& input, const graph::Csr& g, u32 tpb,
                       u32 ept, bool llc, bool trim = false) {
  sim::CostModel cost;
  cost.cache.enabled = llc;
  sim::Device dev(cost);
  algos::scc::Options opt;
  opt.threads_per_block = tpb;
  opt.edges_per_thread = ept;
  opt.record_series = true;
  opt.trim = trim;
  const auto res = algos::scc::run(dev, g, opt);

  std::ostringstream os;
  os << input << " tpb=" << tpb << " ept=" << ept << " llc=" << (llc ? 1 : 0)
     << (trim ? " trim=true" : "")
     << " cycles=" << dev.total_cycles() << " launches="
     << dev.kernel_launches();
  for (usize o = 0; o < static_cast<usize>(sim::AtomicOutcome::kCount_); ++o) {
    os << " atomic" << o << '='
       << dev.atomic_stats().count(static_cast<sim::AtomicOutcome>(o));
  }
  os << " llc_hits=" << dev.llc_hits() << " llc_misses=" << dev.llc_misses()
     << " num_sccs=" << res.num_sccs << " inner_per_outer=";
  for (usize i = 0; i < res.inner_per_outer.size(); ++i) {
    os << (i == 0 ? "" : ",") << res.inner_per_outer[i];
  }
  os << " series=" << fnv1a(res.series.to_csv());
  return os.str();
}

std::vector<std::string> collect() {
  std::vector<std::string> lines;
  for (const char* input : kInputs) {
    const graph::Csr g = make_input(input);
    for (const u32 tpb : kThreadsPerBlock) {
      for (const u32 ept : kEdgesPerThread) {
        for (const bool llc : {false, true}) {
          lines.push_back(shape_line(input, g, tpb, ept, llc));
        }
      }
    }
    lines.push_back(shape_line(input, g, 256, 1, false, /*trim=*/true));
  }
  return lines;
}

std::string golden_path() {
  return std::string(ECLP_GOLDEN_DIR) + "/scc_shapes.txt";
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

TEST(SccShapes, GoldenValuesPinnedAcrossLaunchGeometries) {
  const auto lines = collect();

  if (std::getenv("ECLP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path());
    ASSERT_TRUE(os) << "cannot write " << golden_path();
    os << "# Golden ECL-SCC modeled results per launch geometry (tiny meshes,\n"
          "# threads_per_block x edges_per_thread x modeled LLC off/on, plus\n"
          "# one trimmed run per mesh).\n"
          "# Regenerate: ECLP_UPDATE_GOLDEN=1 ./eclp_tests "
          "--gtest_filter='SccShapes.*'\n";
    for (const auto& line : lines) os << line << '\n';
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const auto golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path()
      << " — regenerate with ECLP_UPDATE_GOLDEN=1";
  EXPECT_EQ(lines, golden)
      << "ECL-SCC modeled results drifted from " << golden_path()
      << "; if the modeling change is intentional, regenerate with "
         "ECLP_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace eclp
