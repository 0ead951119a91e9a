// Modeled-LLC determinism across host sim-threads.
//
// The cache is simulated per block (each block owns a private slice, cold
// at launch) and the per-block hit/miss tallies are merged in block-index
// order, so every modeled quantity — cycles, hit and miss counts — must be
// bit-identical whether the blocks run on 1 host thread or N. This is the
// LLC extension of the determinism_test invariant; it runs all five codes
// with the cache enabled at 1/2/7 sim-threads. Heap placement is one more
// input: every digest is also taken at 1 sim-thread behind a few odd-sized
// allocations, which move the arrays a run allocates to other offsets, and
// page-aligned device memory must keep every count unchanged.
#include <gtest/gtest.h>

#include <memory>
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
constexpr u64 kSeeds[] = {0, 12345};  // deterministic and shuffled schedules

struct LlcDigest {
  u64 total_cycles = 0;
  u64 llc_hits = 0;
  u64 llc_misses = 0;

  bool operator==(const LlcDigest&) const = default;
};

template <typename Body>
LlcDigest run_with_workers(u32 workers, u64 seed, Body&& body) {
  Pool pool(workers);
  sim::CostModel cost;
  cost.cache = sim::parse_cache_config("on");
  sim::Device dev(cost, seed,
                  seed == 0 ? sim::ScheduleMode::kDeterministic
                            : sim::ScheduleMode::kShuffled);
  dev.set_pool(workers > 1 ? &pool : nullptr);
  body(dev);
  LlcDigest d;
  d.total_cycles = dev.total_cycles();
  d.llc_hits = dev.llc_hits();
  d.llc_misses = dev.llc_misses();
  return d;
}

/// Allocations of sizes that are not multiples of a line, held while a run
/// allocates its arrays so those land at other offsets than in a run
/// without them.
std::vector<std::unique_ptr<char[]>> hold_odd_allocations() {
  std::vector<std::unique_ptr<char[]>> held;
  for (const usize bytes : {24, 40, 200, 3000, 8200}) {
    held.push_back(std::make_unique<char[]>(bytes));
  }
  return held;
}

template <typename Body>
void expect_invariant(const std::string& algo, Body&& body) {
  for (const u64 seed : kSeeds) {
    LlcDigest base;
    for (const u32 workers : kWorkerCounts) {
      const LlcDigest d = run_with_workers(workers, seed, body);
      if (workers == 1) {
        base = d;
        // The runs must actually exercise the cache for the invariant to
        // mean anything.
        EXPECT_GT(base.llc_hits + base.llc_misses, 0u) << algo;
        continue;
      }
      EXPECT_EQ(d, base) << algo << " seed=" << seed << " workers="
                         << workers;
    }
    const auto held = hold_odd_allocations();
    EXPECT_EQ(run_with_workers(1, seed, body), base)
        << algo << " seed=" << seed << " behind odd-sized allocations";
  }
}

TEST(LlcInvariance, EclCcBitIdenticalAcrossSimThreads) {
  const auto g = gen::rmat(11, 16000, 0.45, 0.22, 0.22, 5);
  expect_invariant("cc",
                   [&](sim::Device& dev) { algos::cc::run(dev, g); });
}

TEST(LlcInvariance, EclGcBitIdenticalAcrossSimThreads) {
  const auto g = gen::uniform_random(3000, 12000, 9);
  expect_invariant("gc",
                   [&](sim::Device& dev) { algos::gc::run(dev, g); });
}

TEST(LlcInvariance, EclMisBitIdenticalAcrossSimThreads) {
  const auto g = gen::uniform_random(3000, 12000, 11);
  expect_invariant("mis",
                   [&](sim::Device& dev) { algos::mis::run(dev, g); });
}

TEST(LlcInvariance, EclMstBitIdenticalAcrossSimThreads) {
  const auto g =
      graph::with_random_weights(gen::uniform_random(2500, 10000, 13), 13);
  expect_invariant("mst",
                   [&](sim::Device& dev) { algos::mst::run(dev, g); });
}

TEST(LlcInvariance, EclSccBitIdenticalAcrossSimThreads) {
  const auto g = gen::cold_flow(48, 3);
  expect_invariant("scc",
                   [&](sim::Device& dev) { algos::scc::run(dev, g); });
}

}  // namespace
}  // namespace eclp
