#include "algos/baselines/luby_mis.hpp"

#include <algorithm>

#include "algos/common.hpp"
#include "algos/mis/ecl_mis.hpp"
#include "sim/operators.hpp"
#include "support/prng.hpp"

namespace eclp::algos::baselines {

namespace {

constexpr u8 kUndecided = 1;

u64 draw(u64 seed, vidx v, u32 round) {
  return splitmix64(splitmix64(seed ^ (static_cast<u64>(round) << 32)) ^ v);
}

}  // namespace

LubyResult luby_mis(sim::Device& dev, const graph::Csr& g, u64 seed,
                    u32 threads_per_block) {
  ECLP_CHECK_MSG(!g.directed(), "luby_mis expects an undirected graph");
  const vidx n = g.num_vertices();
  LubyResult res;
  std::vector<u8> stat(n, kUndecided);
  const u64 cycles_before = dev.total_cycles();

  const auto cfg = blocks_for(std::max<u64>(n, 1), threads_per_block);
  usize undecided = n;
  while (undecided > 0) {
    ++res.rounds;
    ECLP_CHECK_MSG(res.rounds <= 10 * 64 + n, "Luby diverged");
    const u32 round = res.rounds;
    usize decided_this_round = 0;
    // Selection: strict local maxima of this round's random draw join.
    sim::ops::compute(dev, "luby_select", cfg, n,
                      [&](sim::ThreadCtx& ctx, vidx v) {
      ctx.charge_coalesced_reads(1);
      if (stat[v] != kUndecided) return;
      ctx.charge_alu(2);  // the random draw
      const u64 rv = draw(seed, v, round);
      bool best = true;
      for (const vidx u : g.neighbors(v)) {
        ctx.charge_reads(1);
        if (stat[u] == mis::kIn) {
          best = false;  // a neighbor won already this round
          break;
        }
        if (stat[u] != kUndecided) continue;
        const u64 ru = draw(seed, u, round);
        if (ru > rv || (ru == rv && u > v)) {
          best = false;
          break;
        }
      }
      if (best) {
        ctx.charge_writes(1);
        stat[v] = mis::kIn;
      }
    });
    // Knock-out: neighbors of fresh winners leave (round barrier between
    // the two kernels keeps this race-free — Luby's synchronous structure).
    sim::ops::compute(dev, "luby_knockout", cfg, n,
                      [&](sim::ThreadCtx& ctx, vidx v) {
      ctx.charge_coalesced_reads(1);
      if (stat[v] != kUndecided) return;
      for (const vidx u : g.neighbors(v)) {
        ctx.charge_reads(1);
        if (stat[u] == mis::kIn) {
          ctx.charge_writes(1);
          stat[v] = mis::kOut;
          break;
        }
      }
    });
    usize remaining = 0;
    for (vidx v = 0; v < n; ++v) remaining += (stat[v] == kUndecided);
    decided_this_round = undecided - remaining;
    ECLP_CHECK_MSG(decided_this_round > 0, "Luby round made no progress");
    undecided = remaining;
    dev.host_op();  // the round barrier / termination check readback
  }

  res.modeled_cycles = dev.total_cycles() - cycles_before;
  res.set_size =
      static_cast<usize>(std::count(stat.begin(), stat.end(), mis::kIn));
  // Map to the shared status convention.
  for (auto& s : stat) {
    if (s == kUndecided) s = mis::kOut;  // unreachable; defensive
  }
  res.status = std::move(stat);
  return res;
}

}  // namespace eclp::algos::baselines
