// Modeled-LLC tests: the CacheSim replacement behavior, the --llc spec
// grammar, and the device-level cost semantics (classified loads/stores
// charge llc_hit/llc_miss instead of flat global costs; atomics charge
// both) — see docs/SIMULATOR.md "Modeled LLC".
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/device.hpp"

namespace eclp::sim {
namespace {

CacheConfig tiny_cache(u32 ways, u32 sets) {
  CacheConfig cfg;
  cfg.line_bytes = 64;
  cfg.ways = ways;
  cfg.sets = sets;
  cfg.enabled = true;
  return cfg;
}

// --- CacheSim ----------------------------------------------------------------

TEST(CacheSim, SameLineHitsAfterFirstTouch) {
  CacheSim sim;
  sim.configure(tiny_cache(8, 64));
  EXPECT_FALSE(sim.access(0x1000));  // cold miss
  EXPECT_TRUE(sim.access(0x1000));   // same address
  EXPECT_TRUE(sim.access(0x1038));   // same 64-byte line
  EXPECT_FALSE(sim.access(0x1040));  // next line
  EXPECT_EQ(sim.hits(), 2u);
  EXPECT_EQ(sim.misses(), 2u);
}

TEST(CacheSim, EvictsTheLeastRecentlyUsedWay) {
  // One set, two ways: the third distinct line evicts the stalest.
  CacheSim sim;
  sim.configure(tiny_cache(2, 1));
  const std::uintptr_t a = 0x0000, b = 0x1000, c = 0x2000;
  EXPECT_FALSE(sim.access(a));
  EXPECT_FALSE(sim.access(b));
  EXPECT_TRUE(sim.access(a));   // a is now the most recent
  EXPECT_FALSE(sim.access(c));  // evicts b (LRU)
  EXPECT_TRUE(sim.access(a));   // a survived
  EXPECT_FALSE(sim.access(b));  // b was evicted
}

TEST(CacheSim, ResetClearsContentsAndCounters) {
  CacheSim sim;
  sim.configure(tiny_cache(8, 64));
  sim.access(0x1000);
  sim.access(0x1000);
  sim.reset();
  EXPECT_EQ(sim.hits(), 0u);
  EXPECT_EQ(sim.misses(), 0u);
  EXPECT_FALSE(sim.access(0x1000));  // cold again
}

TEST(CacheSim, OutcomesDependOnAccessPatternNotAbsoluteAddresses) {
  // First-touch renaming: the set a line maps to is a function of the
  // order lines are first seen, so the same pattern at any base address
  // produces the same hit/miss sequence. This is what makes per-block
  // simulation reproducible run-to-run despite ASLR.
  const auto run = [](std::uintptr_t base) {
    CacheSim sim;
    sim.configure(tiny_cache(2, 2));
    std::vector<bool> outcomes;
    for (const std::uintptr_t offset :
         {0x000, 0x040, 0x080, 0x000, 0x140, 0x180, 0x040, 0x000}) {
      outcomes.push_back(sim.access(base + offset));
    }
    return outcomes;
  };
  EXPECT_EQ(run(0x10000), run(0x7fff53a40000));
}

// --- spec grammar ------------------------------------------------------------

TEST(CacheConfigSpec, ParsesEveryForm) {
  EXPECT_FALSE(parse_cache_config("").enabled);
  EXPECT_FALSE(parse_cache_config("off").enabled);

  const CacheConfig on = parse_cache_config("on");
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.line_bytes, 64u);
  EXPECT_EQ(on.ways, 8u);
  EXPECT_EQ(on.sets, 64u);
  EXPECT_EQ(parse_cache_config("default").sets, 64u);

  const CacheConfig custom = parse_cache_config("32:4:16");
  EXPECT_TRUE(custom.enabled);
  EXPECT_EQ(custom.line_bytes, 32u);
  EXPECT_EQ(custom.ways, 4u);
  EXPECT_EQ(custom.sets, 16u);
}

TEST(CacheConfigSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_cache_config("63:8:64"), CheckFailure);  // line not 2^k
  EXPECT_THROW(parse_cache_config("64:0:64"), CheckFailure);  // zero ways
  EXPECT_THROW(parse_cache_config("64:8:63"), CheckFailure);  // sets not 2^k
  EXPECT_THROW(parse_cache_config("64:8"), CheckFailure);
  EXPECT_THROW(parse_cache_config("garbage"), CheckFailure);
  // Bounds: a field above u32 (one that would wrap to 64, one above u64), a
  // line longer than a device page, and slices of more than
  // kMaxCacheEntries tags. Each message names the spec.
  for (const char* spec : {"4294967360:8:64", "99999999999999999999:8:64",
                           "8192:8:64", "64:4294967295:64", "64:1024:128"}) {
    try {
      parse_cache_config(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(parse_cache_config("4096:2:8").enabled);  // one page, 16 tags
  EXPECT_TRUE(parse_cache_config("64:1024:64").enabled);  // 65,536 tags
}

TEST(CacheConfigSpec, LabelRoundTrips) {
  EXPECT_EQ(cache_config_label(parse_cache_config("off")), "off");
  EXPECT_EQ(cache_config_label(parse_cache_config("on")), "64:8:64");
  EXPECT_EQ(cache_config_label(parse_cache_config("32:4:16")), "32:4:16");
}

// --- cost semantics ----------------------------------------------------------

TEST(KernelCost, HitRateDefaultsToPerfectWhenNoAccesses) {
  KernelCost kc;
  EXPECT_DOUBLE_EQ(kc.llc_hit_rate(), 1.0);
  kc.llc_hits = 3;
  kc.llc_misses = 1;
  EXPECT_DOUBLE_EQ(kc.llc_hit_rate(), 0.75);
}

TEST(ModeledLlc, ClassifiedLoadsReplaceFlatGlobalReads) {
  // One thread loads the same u64 four times: 1 miss + 3 hits when the
  // cache is on, 4 flat global reads when it is off. Everything else about
  // the two runs is identical, so the cycle delta is exactly
  // (llc_miss + 3 * llc_hit) - 4 * global_read.
  const auto run = [](bool enabled) {
    CostModel cost;
    cost.cache.enabled = enabled;
    Device dev(cost);
    u64 value = 7;
    dev.launch("k", {1, 1}, [&](ThreadCtx& ctx) {
      for (int i = 0; i < 4; ++i) ctx.load(value);
    });
    return std::tuple{dev.total_cycles(), dev.llc_hits(), dev.llc_misses()};
  };
  const auto [off_cycles, off_hits, off_misses] = run(false);
  const auto [on_cycles, on_hits, on_misses] = run(true);
  EXPECT_EQ(off_hits, 0u);
  EXPECT_EQ(off_misses, 0u);
  EXPECT_EQ(on_hits, 3u);
  EXPECT_EQ(on_misses, 1u);
  const CostModel cost;
  EXPECT_EQ(on_cycles, off_cycles + (cost.llc_miss + 3 * cost.llc_hit) -
                           4 * cost.global_read);
}

TEST(ModeledLlc, AtomicsChargeAtomicPlusClassification) {
  // Atomics resolve at the LLC on real GPUs: they keep their flat atomic
  // cost and additionally classify the target line.
  const auto run = [](bool enabled) {
    CostModel cost;
    cost.cache.enabled = enabled;
    Device dev(cost);
    u32 value = 0;
    dev.launch("k", {1, 1}, [&](ThreadCtx& ctx) {
      ctx.atomic_add(value, 1u);
      ctx.atomic_add(value, 1u);
    });
    return std::tuple{dev.total_cycles(), dev.llc_hits(), dev.llc_misses()};
  };
  const auto [off_cycles, off_hits, off_misses] = run(false);
  const auto [on_cycles, on_hits, on_misses] = run(true);
  EXPECT_EQ(on_hits, 1u);
  EXPECT_EQ(on_misses, 1u);
  const CostModel cost;
  EXPECT_EQ(on_cycles, off_cycles + cost.llc_miss + cost.llc_hit);
}

TEST(ModeledLlc, BlockCachesAreColdPerLaunchAndSummedInBlockOrder) {
  // Two blocks touch the same array: each block's private slice is cold,
  // so both blocks miss their first touch of every line — block count
  // scales the miss count even though the data overlaps.
  alignas(64) static std::array<u64, 8> shared{};  // one 64-byte line
  CostModel cost;
  cost.cache.enabled = true;
  Device dev(cost);
  dev.launch("k", {2, 4}, [&](ThreadCtx& ctx) {
    ctx.load(shared[ctx.thread_idx()]);
  });
  // Per block: 4 accesses to one line = 1 miss + 3 hits.
  EXPECT_EQ(dev.llc_misses(), 2u);
  EXPECT_EQ(dev.llc_hits(), 6u);
  // A second launch starts cold again (no cross-kernel reuse is modeled).
  dev.launch("k2", {2, 4}, [&](ThreadCtx& ctx) {
    ctx.load(shared[ctx.thread_idx()]);
  });
  EXPECT_EQ(dev.llc_misses(), 4u);
  EXPECT_EQ(dev.llc_hits(), 12u);
}

}  // namespace
}  // namespace eclp::sim
