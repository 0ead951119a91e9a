// Baseline connected components: min-label propagation with per-round
// pointer jumping (the classic Shiloach-Vishkin-style GPU CC that ECL-CC
// improves on). Each round, every edge tries to pull its endpoint's label
// down via atomicMin, then every vertex shortcuts its label one hop.
// Converges in O(log n) rounds on most graphs but touches every edge every
// round — the work ECL-CC's asynchronous union-find avoids.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "sim/device.hpp"

namespace eclp::algos::baselines {

struct LabelPropResult {
  sim::DeviceVector<vidx> labels;
  u32 rounds = 0;
  u64 modeled_cycles = 0;
  u64 label_updates = 0;  ///< effective atomicMin operations
};

LabelPropResult label_prop_cc(sim::Device& dev, const graph::Csr& g,
                              u32 threads_per_block = 256);

}  // namespace eclp::algos::baselines
