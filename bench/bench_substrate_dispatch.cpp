// Microbench — what the zero-erasure dispatch path is worth.
//
// The launch entry points of sim/device.hpp are templates: the kernel body
// is invoked directly and its cost charges accumulate in a ThreadCtx-local
// tally flushed once per invocation. This bench quantifies both halves of
// that design on a tight grid-stride kernel by running the same body four
// ways:
//
//   dispatch = template   the body is a raw lambda (the normal API use);
//   dispatch = erased     the body is wrapped in std::function before the
//                         launch, reintroducing one indirect call + erased
//                         body per simulated thread — the pre-refactor
//                         dispatch cost, measured on today's substrate;
//   charging = batched    the body charges through ThreadCtx (local tally,
//                         one flush per thread);
//   charging = per-op     the body additionally performs one shared-state
//                         update per memory op against an external
//                         per-thread work table — the pre-refactor charge()
//                         pattern (indexed read-modify-write per op).
//
// Reported as ns per simulated thread (median of --runs, with the fastest
// and slowest run beside it), with speedups of the medians relative to the
// erased/per-op combination, i.e. the old substrate. Run
//
//   bench_substrate_dispatch --json BENCH_substrate_dispatch.json
//
// to record the perf-trajectory artifact the repo tracks across PRs.
//
// A second table measures the operator substrate (sim/operators.hpp): the
// same bodies run hand-rolled vs. through ops::compute / ops::advance. The
// operators are templates forwarding straight into launch(), so their
// wall-clock overhead must stay within 5% of the hand-rolled loops — and
// their modeled cycles identical (checked here).
#include <algorithm>
#include <functional>
#include <vector>

#include "algos/common.hpp"
#include "graph/builder.hpp"
#include "harness/harness.hpp"
#include "sim/operators.hpp"
#include "support/timer.hpp"

using namespace eclp;

namespace {

constexpr u32 kBlocks = 64;
constexpr u32 kThreadsPerBlock = 256;
constexpr u32 kElemsPerThread = 8;

/// Elements each simulated thread strides over; the values only exist so
/// the reads cannot be optimized away.
std::vector<u32> make_data(u32 total_threads) {
  std::vector<u32> data(static_cast<usize>(total_threads) * kElemsPerThread);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u32>(i * 2654435761u);
  return data;
}

/// The grid-stride kernel body, parameterized on the charging style.
/// `per_op_work` is null for batched charging; non-null makes every charge
/// also hit the external per-thread table, one read-modify-write per op.
template <bool kPerOp>
struct Kernel {
  const std::vector<u32>* data;
  std::vector<u64>* per_op_work;
  u64* sink;

  void operator()(sim::ThreadCtx& ctx) const {
    const u32 n = static_cast<u32>(data->size());
    const u32 stride = ctx.grid_size();
    u64 acc = 0;
    for (u32 i = ctx.global_id(); i < n; i += stride) {
      acc ^= (*data)[i];
      ctx.charge_reads(1);
      ctx.charge_alu(1);
      if constexpr (kPerOp) {
        // One shared-state update per op, like the old Device::charge().
        (*per_op_work)[ctx.global_id()] += 5;  // global_read + alu
      }
    }
    *sink ^= acc;
  }
};

struct Sample {
  harness::Spread ns_per_thread{};
  u64 modeled_cycles = 0;
};

/// ns/simulated-thread for one launch variant over ctx.runs runs.
template <typename LaunchFn>
Sample measure(const harness::BenchContext& ctx, u32 total_threads,
               LaunchFn&& launch_once) {
  constexpr int kLaunchesPerRun = 20;
  std::vector<double> times;
  Sample sample;
  launch_once();  // warm-up (and page in the data)
  for (int r = 0; r < ctx.runs; ++r) {
    Timer timer;
    u64 cycles = 0;
    for (int i = 0; i < kLaunchesPerRun; ++i) cycles = launch_once();
    times.push_back(timer.seconds() * 1e9 /
                    (static_cast<double>(kLaunchesPerRun) * total_threads));
    sample.modeled_cycles = cycles;
  }
  sample.ns_per_thread = harness::spread_of(std::move(times));
  return sample;
}

struct PairSample {
  Sample hand;
  Sample op;
  double overhead_pct = 0;  ///< median of per-run op/hand ratios, minus one
};

/// Interleaved A/B measurement for the operator-overhead table: each run
/// times the hand-rolled and the operator form back to back. The ns/thread
/// columns report each variant's *minimum* across runs (the least
/// noise-contaminated estimate of its true cost), but the overhead column
/// is the median of *per-run ratios*: the two forms share each run's noise
/// window, so the ratio cancels common-mode contention, and the median
/// discards runs where a spike landed between the two timings. On a
/// machine with background load this paired estimator is stable to ~1%
/// where comparing two independent minima can swing several percent on
/// whichever variant drew the quietest window.
template <typename HandFn, typename OpFn>
PairSample measure_pair(const harness::BenchContext& ctx, u32 total_threads,
                        HandFn&& hand_once, OpFn&& op_once) {
  constexpr int kLaunchesPerRun = 20;
  const int runs = std::max(ctx.runs, 11);
  std::vector<double> hand_ns, op_ns;
  PairSample pair;
  hand_once();  // warm-up both paths (and page in the data)
  op_once();
  for (int r = 0; r < runs; ++r) {
    Timer hand_timer;
    for (int i = 0; i < kLaunchesPerRun; ++i) {
      pair.hand.modeled_cycles = hand_once();
    }
    hand_ns.push_back(hand_timer.seconds() * 1e9 /
                      (static_cast<double>(kLaunchesPerRun) * total_threads));
    Timer op_timer;
    for (int i = 0; i < kLaunchesPerRun; ++i) {
      pair.op.modeled_cycles = op_once();
    }
    op_ns.push_back(op_timer.seconds() * 1e9 /
                    (static_cast<double>(kLaunchesPerRun) * total_threads));
  }
  std::vector<double> ratios(hand_ns.size());
  for (usize r = 0; r < ratios.size(); ++r) ratios[r] = op_ns[r] / hand_ns[r];
  std::sort(ratios.begin(), ratios.end());
  pair.overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  pair.hand.ns_per_thread = harness::spread_of(std::move(hand_ns));
  pair.op.ns_per_thread = harness::spread_of(std::move(op_ns));
  return pair;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = harness::parse(
      argc, argv,
      "Substrate: erased vs. template dispatch, per-op vs. batched charging");

  const sim::LaunchConfig cfg{kBlocks, kThreadsPerBlock};
  const u32 total = cfg.total_threads();
  const auto data = make_data(total);
  std::vector<u64> per_op_work(total, 0);
  u64 sink = 0;

  auto dev = harness::make_device();
  const Kernel<false> batched{&data, nullptr, &sink};
  const Kernel<true> per_op{&data, &per_op_work, &sink};

  // The erased variants wrap the identical bodies in std::function, putting
  // one type-erasure boundary back between the launch loop and the body.
  const std::function<void(sim::ThreadCtx&)> batched_erased = batched;
  const std::function<void(sim::ThreadCtx&)> per_op_erased = per_op;

  const auto run = [&](const auto& body) {
    return [&dev, &cfg, &body] {
      return dev.launch("stride", cfg, body).cost.modeled_cycles;
    };
  };

  const Sample s_tpl_batched = measure(ctx, total, run(batched));
  const Sample s_tpl_perop = measure(ctx, total, run(per_op));
  const Sample s_er_batched = measure(ctx, total, run(batched_erased));
  const Sample s_er_perop = measure(ctx, total, run(per_op_erased));

  // All four variants charge ThreadCtx identically, so the modeled cycles
  // must agree — the per-op table and the erasure wrapper are wall-clock
  // effects only.
  ECLP_CHECK(s_tpl_batched.modeled_cycles == s_er_perop.modeled_cycles);
  ECLP_CHECK(s_tpl_perop.modeled_cycles == s_er_batched.modeled_cycles);
  ECLP_CHECK(s_tpl_batched.modeled_cycles == s_tpl_perop.modeled_cycles);

  const double baseline = s_er_perop.ns_per_thread.median;
  const auto add = [&](Table& t, const char* dispatch, const char* charging,
                       const Sample& s) {
    std::vector<std::string> row = {dispatch, charging};
    harness::add_spread(row, s.ns_per_thread, 2);
    row.push_back(fmt::fixed(baseline / s.ns_per_thread.median, 2) + "x");
    row.push_back(fmt::grouped(s.modeled_cycles));
    t.add_row(row);
  };

  Table t("Substrate dispatch — ns per simulated thread (" +
          std::to_string(kElemsPerThread) + " charged ops each)");
  t.set_header({"dispatch", "charging", "ns/thread", "ns/thread min",
                "ns/thread max", "speedup vs erased/per-op", "modeled cycles"});
  add(t, "erased", "per-op", s_er_perop);
  add(t, "erased", "batched", s_er_batched);
  add(t, "template", "per-op", s_tpl_perop);
  add(t, "template", "batched", s_tpl_batched);
  harness::emit(ctx, "substrate_dispatch", t);

  std::printf(
      "template/batched is the production path; erased/per-op replays the\n"
      "pre-refactor substrate (std::function per body call, shared-state\n"
      "update per charged op) on the same kernel. sink=%llu\n",
      static_cast<unsigned long long>(sink));

  // --- operator substrate overhead ------------------------------------------
  // The same work written as the hand-rolled launch loop an algorithm would
  // contain vs. spelled with the operators that replaced those loops. The
  // bodies charge identically, so modeled cycles must be bit-identical; the
  // only question is the wall-clock cost of the operator plumbing.
  const u32 n_elems = static_cast<u32>(data.size());
  const auto hand_compute = [&] {
    return dev
        .launch("op_stride", cfg,
                [&](sim::ThreadCtx& c) {
                  for (u32 i = c.global_id(); i < n_elems; i += c.grid_size()) {
                    c.charge_reads(1);
                    c.charge_alu(1);
                    sink ^= data[i];
                  }
                })
        .cost.modeled_cycles;
  };
  const auto op_compute = [&] {
    return sim::ops::compute(dev, "op_stride", cfg, n_elems,
                             [&](sim::ThreadCtx& c, vidx i) {
                               c.charge_reads(1);
                               c.charge_alu(1);
                               sink ^= data[i];
                             })
        .cost.modeled_cycles;
  };

  // advance: thread-per-vertex frontier expansion over a degree-8 ring
  // (ECL-CC's low-bin shape: 2 coalesced row-offset reads per visit, one
  // coalesced read per adjacency entry, and one instrumented scattered load
  // per edge — the lightest edge body any ported kernel has; CC chases
  // representatives, MIS reads neighbor priorities, GC reads neighbor
  // colors). Both paths run the identical body, so the ratio isolates the
  // operator plumbing.
  constexpr vidx kAdvVertices = 1u << 14;
  graph::Builder builder(kAdvVertices);
  for (vidx v = 0; v < kAdvVertices; ++v) {
    for (vidx k = 1; k <= 4; ++k) builder.add(v, (v + k) % kAdvVertices);
  }
  const graph::Csr g = builder.build();
  std::vector<u64> labels(kAdvVertices);
  for (vidx v = 0; v < kAdvVertices; ++v) labels[v] = v * 0x9e3779b97f4a7c15ull;
  // Runtime bound, like every real kernel's bin/worklist size — a constexpr
  // trip count would hand the hand-rolled loop an advantage no algorithm
  // actually has.
  const vidx adv_n = g.num_vertices();
  const sim::LaunchConfig adv_cfg =
      algos::blocks_for(adv_n, kThreadsPerBlock);
  const auto hand_advance = [&] {
    return dev
        .launch("op_expand", adv_cfg,
                [&](sim::ThreadCtx& c) {
                  for (u32 v = c.global_id(); v < adv_n;
                       v += c.grid_size()) {
                    c.charge_coalesced_reads(2);
                    u64 acc = v;
                    for (const vidx u : g.neighbors(v)) {
                      c.charge_coalesced_reads(1);
                      acc ^= c.load(labels[u]);
                    }
                    sink ^= acc;
                  }
                })
        .cost.modeled_cycles;
  };
  const auto op_advance = [&] {
    return sim::ops::advance(
               dev, "op_expand", adv_cfg, g,
               sim::ops::all_vertices(adv_n),
               sim::ops::AdvanceShape{
                   .width = 1,
                   .row_offset_reads = 2,
                   .edge_charge = sim::ops::AdvanceShape::EdgeCharge::kCoalesced},
               [](sim::ThreadCtx&, vidx v, u32) { return u64{v}; },
               [&](sim::ThreadCtx& c, u64& acc, vidx, vidx u) {
                 acc ^= c.load(labels[u]);
               },
               [&](sim::ThreadCtx&, vidx, u64& acc) { sink ^= acc; })
        .cost.modeled_cycles;
  };

  const PairSample p_compute = measure_pair(ctx, total, hand_compute, op_compute);
  const u32 adv_total = adv_cfg.total_threads();
  const PairSample p_advance =
      measure_pair(ctx, adv_total, hand_advance, op_advance);

  // Bit-identical charging is the operator layer's contract
  // (modeled_invariance_test holds the algorithm-level version of this).
  ECLP_CHECK(p_compute.op.modeled_cycles == p_compute.hand.modeled_cycles);
  ECLP_CHECK(p_advance.op.modeled_cycles == p_advance.hand.modeled_cycles);

  const auto add_op = [&](Table& table, const char* op, const char* path,
                          const Sample& s, double overhead_pct) {
    table.add_row({op, path, fmt::fixed(s.ns_per_thread.min, 2),
                   fmt::fixed(overhead_pct, 1) + "%",
                   fmt::grouped(s.modeled_cycles)});
  };
  Table ot("Operator substrate — ns per simulated thread vs hand-rolled");
  ot.set_header({"operator", "path", "ns/thread", "overhead vs hand-rolled",
                 "modeled cycles"});
  add_op(ot, "compute", "hand-rolled", p_compute.hand, 0.0);
  add_op(ot, "compute", "ops::compute", p_compute.op, p_compute.overhead_pct);
  add_op(ot, "advance", "hand-rolled", p_advance.hand, 0.0);
  add_op(ot, "advance", "ops::advance", p_advance.op, p_advance.overhead_pct);
  harness::emit(ctx, "operator_overhead", ot);
  return 0;
}
