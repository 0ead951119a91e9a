// The tentpole invariant of the block-parallel execution engine: for the
// same device seed, every modeled quantity — results, counters, per-block
// series, atomic-outcome tallies, modeled cycles — is bit-identical whether
// the simulator runs on 1 host thread or N. Each algorithm runs at 1/2/7
// sim-threads, in both deterministic and shuffled schedule modes, and every
// comparable field must match the 1-thread baseline exactly.
#include <gtest/gtest.h>

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
#include "sim/device.hpp"
#include "sim/pool.hpp"
#include "support/pool.hpp"

namespace eclp {
namespace {

constexpr u32 kWorkerCounts[] = {1, 2, 7};
constexpr u64 kSeeds[] = {0, 12345};  // deterministic and shuffled schedules

/// Device-side fingerprint shared by all five algorithms: modeled cycles
/// plus the full atomic-outcome histogram.
struct DeviceDigest {
  u64 total_cycles = 0;
  u64 launches = 0;
  std::vector<u64> atomic_counts;

  bool operator==(const DeviceDigest&) const = default;
};

DeviceDigest digest(const sim::Device& dev) {
  DeviceDigest d;
  d.total_cycles = dev.total_cycles();
  d.launches = dev.kernel_launches();
  for (usize o = 0; o < static_cast<usize>(sim::AtomicOutcome::kCount_); ++o) {
    d.atomic_counts.push_back(
        dev.atomic_stats().count(static_cast<sim::AtomicOutcome>(o)));
  }
  return d;
}

/// Run `body(dev)` on a device with `workers` host threads and the given
/// seed; returns the device digest. `body` captures its own result fields.
template <typename Body>
DeviceDigest run_with_workers(u32 workers, u64 seed, Body&& body) {
  Pool pool(workers);
  sim::Device dev(sim::CostModel{}, seed,
                  seed == 0 ? sim::ScheduleMode::kDeterministic
                            : sim::ScheduleMode::kShuffled);
  dev.set_pool(workers > 1 ? &pool : nullptr);
  body(dev);
  return digest(dev);
}

TEST(Determinism, EclCcBitIdenticalAcrossSimThreads) {
  const auto g = gen::rmat(11, 16000, 0.45, 0.22, 0.22, 5);
  for (const u64 seed : kSeeds) {
    algos::cc::Result base;
    DeviceDigest base_digest;
    for (const u32 workers : kWorkerCounts) {
      algos::cc::Result res;
      algos::cc::Options opt;
      opt.record_per_vertex_traversals = true;
      const auto d = run_with_workers(workers, seed, [&](sim::Device& dev) {
        res = algos::cc::run(dev, g, opt);
      });
      if (workers == 1) {
        base = std::move(res);
        base_digest = d;
        EXPECT_TRUE(algos::cc::verify(g, base.labels));
        continue;
      }
      EXPECT_EQ(res.labels, base.labels) << workers << " workers";
      EXPECT_EQ(res.modeled_cycles, base.modeled_cycles);
      EXPECT_EQ(res.init_cycles, base.init_cycles);
      EXPECT_EQ(res.init_traversal_per_vertex, base.init_traversal_per_vertex);
      EXPECT_EQ(res.profile.vertices_initialized,
                base.profile.vertices_initialized);
      EXPECT_EQ(res.profile.init_neighbors_traversed,
                base.profile.init_neighbors_traversed);
      EXPECT_EQ(res.profile.hook_attempts, base.profile.hook_attempts);
      EXPECT_EQ(res.profile.hook_cas_failure, base.profile.hook_cas_failure);
      EXPECT_EQ(d, base_digest) << workers << " workers, seed " << seed;
    }
  }
}

TEST(Determinism, EclGcBitIdenticalAcrossSimThreads) {
  const auto g = gen::uniform_random(3000, 12000, 9);
  for (const u64 seed : kSeeds) {
    algos::gc::Result base;
    DeviceDigest base_digest;
    for (const u32 workers : kWorkerCounts) {
      algos::gc::Result res;
      const auto d = run_with_workers(workers, seed, [&](sim::Device& dev) {
        res = algos::gc::run(dev, g);
      });
      if (workers == 1) {
        base = std::move(res);
        base_digest = d;
        EXPECT_TRUE(algos::gc::verify(g, base.colors));
        continue;
      }
      EXPECT_EQ(res.colors, base.colors) << workers << " workers";
      EXPECT_EQ(res.num_colors, base.num_colors);
      EXPECT_EQ(res.host_iterations, base.host_iterations);
      EXPECT_EQ(res.shortcut1_colorings, base.shortcut1_colorings);
      EXPECT_EQ(res.shortcut2_removals, base.shortcut2_removals);
      EXPECT_EQ(res.modeled_cycles, base.modeled_cycles);
      EXPECT_EQ(d, base_digest) << workers << " workers, seed " << seed;
    }
  }
}

TEST(Determinism, EclMisBitIdenticalAcrossSimThreads) {
  const auto g = gen::uniform_random(3000, 12000, 11);
  for (const u64 seed : kSeeds) {
    algos::mis::Result base;
    DeviceDigest base_digest;
    for (const u32 workers : kWorkerCounts) {
      algos::mis::Result res;
      const auto d = run_with_workers(workers, seed, [&](sim::Device& dev) {
        res = algos::mis::run(dev, g);
      });
      if (workers == 1) {
        base = std::move(res);
        base_digest = d;
        EXPECT_TRUE(algos::mis::verify(g, base.status));
        continue;
      }
      EXPECT_EQ(res.status, base.status) << workers << " workers";
      EXPECT_EQ(res.set_size, base.set_size);
      EXPECT_EQ(res.modeled_cycles, base.modeled_cycles);
      EXPECT_EQ(d, base_digest) << workers << " workers, seed " << seed;
    }
  }
}

TEST(Determinism, EclMstBitIdenticalAcrossSimThreads) {
  const auto g =
      graph::with_random_weights(gen::uniform_random(2500, 10000, 13), 13);
  for (const u64 seed : kSeeds) {
    algos::mst::Result base;
    DeviceDigest base_digest;
    for (const u32 workers : kWorkerCounts) {
      algos::mst::Result res;
      const auto d = run_with_workers(workers, seed, [&](sim::Device& dev) {
        res = algos::mst::run(dev, g);
      });
      if (workers == 1) {
        base = std::move(res);
        base_digest = d;
        EXPECT_TRUE(algos::mst::verify(g, base));
        continue;
      }
      EXPECT_EQ(res.in_mst, base.in_mst) << workers << " workers";
      EXPECT_EQ(res.total_weight, base.total_weight);
      EXPECT_EQ(res.mst_edges, base.mst_edges);
      EXPECT_EQ(res.modeled_cycles, base.modeled_cycles);
      EXPECT_EQ(d, base_digest) << workers << " workers, seed " << seed;
    }
  }
}

TEST(Determinism, EclSccBitIdenticalAcrossSimThreads) {
  const auto g = gen::cold_flow(48, 3);
  for (const u64 seed : kSeeds) {
    algos::scc::Result base;
    DeviceDigest base_digest;
    for (const u32 workers : kWorkerCounts) {
      algos::scc::Result res;
      algos::scc::Options opt;
      opt.record_series = true;
      const auto d = run_with_workers(workers, seed, [&](sim::Device& dev) {
        res = algos::scc::run(dev, g, opt);
      });
      if (workers == 1) {
        base = std::move(res);
        base_digest = d;
        EXPECT_TRUE(algos::scc::verify(g, base.scc_id));
        continue;
      }
      EXPECT_EQ(res.scc_id, base.scc_id) << workers << " workers";
      EXPECT_EQ(res.num_sccs, base.num_sccs);
      EXPECT_EQ(res.outer_iterations, base.outer_iterations);
      EXPECT_EQ(res.inner_per_outer, base.inner_per_outer);
      EXPECT_EQ(res.trimmed_vertices, base.trimmed_vertices);
      EXPECT_EQ(res.modeled_cycles, base.modeled_cycles);
      // The per-block update series is the paper's Figure 1 input; its CSV
      // rendering covers every (outer, inner, block, value) tuple.
      EXPECT_EQ(res.series.to_csv(), base.series.to_csv());
      EXPECT_EQ(d, base_digest) << workers << " workers, seed " << seed;
    }
  }
}

/// The process-wide configuration path (ECLP_SIM_THREADS / --sim-threads →
/// set_sim_threads → shared_pool → Device ctor) must deliver the same
/// bit-identity as test-local pool injection.
TEST(Determinism, SharedPoolConfigurationMatchesInjectedPool) {
  const auto g = gen::cold_flow(24, 3);
  const u32 before = sim::sim_threads();

  sim::set_sim_threads(1);
  sim::Device dev1;
  const auto res1 = algos::scc::run(dev1, g);
  const auto digest1 = digest(dev1);

  sim::set_sim_threads(7);
  sim::Device dev7;
  EXPECT_EQ(dev7.workers(), 7u);
  const auto res7 = algos::scc::run(dev7, g);
  const auto digest7 = digest(dev7);

  sim::set_sim_threads(before == 0 ? 1 : before);

  EXPECT_EQ(res7.scc_id, res1.scc_id);
  EXPECT_EQ(res7.modeled_cycles, res1.modeled_cycles);
  EXPECT_EQ(digest7, digest1);
}

}  // namespace
}  // namespace eclp
